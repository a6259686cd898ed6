(* Host-side measurement: a monotonic clock, per-layer call probes and
   traced sections for the traced run, and process GC and memory
   readings.

   Probes record only while the Fom_obs sink is enabled, so an untraced
   round pays one atomic load per layer call and nothing else. *)

let now_ns = Fom_obs.Clock.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* Call [f] again and again until [seconds] have passed (at least
   once); its results in order. *)
let repeat ~seconds f =
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc =
    let acc = f () :: acc in
    if now_ns () >= t_end then List.rev acc else go acc
  in
  go []

(* A layer call site: a span of its own name, plus what spans lack:
   the work units (instructions, evaluations) and minor-heap words of
   its traced calls. [Gc.minor_words] is per domain, so the allocation
   of a call is counted on the domain that ran it. *)
type probe = {
  name : string;
  span : Fom_obs.Span.id;
  lock : Mutex.t;
  mutable units : int;
  mutable words : float;
}

let registry = ref []

(* Register (or look up) the probe named [name]: workloads that call
   the same layer share its probe. *)
let probe name =
  match List.find_opt (fun p -> p.name = name) !registry with
  | Some p -> p
  | None ->
      let p =
        { name; span = Fom_obs.Span.id name; lock = Mutex.create (); units = 0; words = 0.0 }
      in
      registry := p :: !registry;
      p

let call p ~units f =
  if not (Fom_obs.Sink.enabled ()) then f ()
  else begin
    let w0 = Gc.minor_words () in
    let r = Fom_obs.Span.with_ p.span f in
    let w = Gc.minor_words () -. w0 in
    Mutex.protect p.lock (fun () ->
        p.units <- p.units + units;
        p.words <- p.words +. w);
    r
  end

type span_total = { count : int; total_ns : int; self_ns : int; max_ns : int }

let no_span = { count = 0; total_ns = 0; self_ns = 0; max_ns = 0 }

(* What the traced sections of a run recorded, summed over sections:
   count, total, self and longest time per span name, the Fom_obs
   counters, and the span events lost to full buffers. *)
let spans : (string, span_total) Hashtbl.t = Hashtbl.create 32
let counters : (string, int) Hashtbl.t = Hashtbl.create 32
let dropped = ref 0

let span name = Option.value (Hashtbl.find_opt spans name) ~default:no_span
let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0

(* Fold the sink's events into [spans]. A span's self time is its
   duration minus the time its direct children cover; spans nest per
   domain, so each domain keeps its own stack. *)
let add_spans () =
  let add name dur self =
    let t = span name in
    Hashtbl.replace spans name
      {
        count = t.count + 1;
        total_ns = t.total_ns + dur;
        self_ns = t.self_ns + self;
        max_ns = max t.max_ns dur;
      }
  in
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (e : Fom_obs.Span.event) ->
      let stack =
        match Hashtbl.find_opt stacks e.domain with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.add stacks e.domain s;
            s
      in
      match e.phase with
      | Fom_obs.Span.Begin -> stack := (e.ts_ns, ref 0) :: !stack
      | Fom_obs.Span.End -> (
          match !stack with
          | (t0, children) :: rest ->
              stack := rest;
              let dur = e.ts_ns - t0 in
              (match rest with (_, parent) :: _ -> parent := !parent + dur | [] -> ());
              add e.name dur (dur - !children)
          | [] -> ()))
    (Fom_obs.Span.events ())

(* Run [f] as a traced section: with the sink enabled (which clears
   its buffers and counters), then fold what it recorded into [spans]
   and [counters]. Call it with no worker domain running, so every
   buffer is complete when it is read. *)
let traced f =
  Fom_obs.Sink.enable ();
  let r = Fun.protect ~finally:Fom_obs.Sink.disable f in
  add_spans ();
  List.iter
    (fun (name, v) -> Hashtbl.replace counters name (counter name + v))
    (Fom_obs.Metrics.snapshot ()).Fom_obs.Metrics.counters;
  dropped := !dropped + Fom_obs.Span.dropped ();
  r

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Process-wide GC counters; call after worker domains have joined so
   their allocation is folded in. *)
let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* Peak resident set size in MB (VmHWM), 0 where /proc is absent. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
      let field = "VmHWM:" in
      List.fold_left
        (fun acc line ->
          if String.starts_with ~prefix:field line then
            let v = String.sub line 6 (String.length line - 6) in
            match Scanf.sscanf v " %d kB" Fun.id with
            | kb -> float_of_int kb /. 1024.0
            | exception _ -> acc
          else acc)
        0.0 (String.split_on_char '\n' status)
