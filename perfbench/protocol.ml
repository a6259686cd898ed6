(* The run protocol shared by the workloads.

   Untraced (--trace 0): set up [setup_repeats] times, spread over the
   run, each set-up followed by whole rounds for an equal share of
   [seconds]; [setup_s] is the median set-up and [wall_s] the median
   round. Every round is checked, and its digest must equal the first
   round's, across set-ups too.

   Traced (--trace 1): set up once with the Fom_obs sink enabled, then
   alternate untraced and traced rounds for [seconds], so both see the
   same host state. The per-layer metrics come from the traced rounds
   and set-up only; [obs.overhead_pct] compares the two medians. *)

type summary = {
  packed_bytes : int;  (** bytes of every packed column the workload holds *)
  domains : int;  (** domains its rounds run on *)
  sim_instructions : int;  (** simulated instructions per round *)
  evaluations : int;  (** model evaluations per round *)
  accuracy : (float * float * float) option;
      (** refined model against simulation: mean and worst absolute
          error on the presets' seeds, mean on held-out seeds (%) *)
}

module type WORKLOAD = sig
  type env
  type result

  val name : string

  val setup : traced:bool -> seed:int -> env
  (** With [traced], the set-up makes separately the layer calls the
      traced run times one by one. *)

  val traced_env : env -> result -> env
  (** The environment of the traced run's rounds, given its first
      round's result; it may reuse that result. *)

  val round : env -> result
  (** One round of the timed operations. *)

  val check : Report.t -> env -> result -> Fingerprint.t -> unit
  (** Count and check every operation of a round; feed every result
      into the digest. *)

  val summary : env -> result -> summary
end

let setup_repeats = 5

(* Per-layer metrics, all printed for every workload; 0 means the
   workload does not exercise that layer. Times are span totals, work
   units and allocation come from the probes of the same calls. *)
let per_layer ~(s : summary) ~wall_s ~traced_wall ~traced_s ~traced_rounds ~gc =
  let group prefix =
    List.filter (fun (p : Layer.probe) -> String.starts_with ~prefix p.name) !Layer.registry
  in
  let one name = List.filter (fun (p : Layer.probe) -> p.name = name) !Layer.registry in
  let sum f ps = List.fold_left (fun a p -> a +. f p) 0.0 ps in
  let ns (p : Layer.probe) = float_of_int (Layer.span p.name).total_ns in
  let units (p : Layer.probe) = float_of_int p.units in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let ns_per ps = ratio (sum ns ps) (sum units ps) in
  let words_per ps = ratio (sum (fun (p : Layer.probe) -> p.words) ps) (sum units ps) in
  let sims = group "uarch.sim." in
  let task = Layer.span "pool.task" in
  let busy_s = float_of_int task.total_ns *. 1e-9 in
  let rounds = float_of_int traced_rounds in
  let minor_words, major_collections = gc in
  let accuracy f = match s.accuracy with Some a -> f a | None -> 0.0 in
  [
    ("trace.pack_ns_per_instr", "ns/instr", ns_per (one "trace.pack"));
    ("trace.pack_alloc_words_per_instr", "words/instr", words_per (one "trace.pack"));
    ("trace.packed_mb", "MB", float_of_int s.packed_bytes /. 1048576.0);
    ("uarch.sim_ns_per_instr", "ns/instr", ns_per sims);
    ("uarch.sim_ns_per_instr.ideal", "ns/instr", ns_per (one "uarch.sim.ideal"));
    ("uarch.sim_ns_per_instr.real", "ns/instr", ns_per (one "uarch.sim.real"));
    ( "uarch.sim_ns_per_cycle",
      "ns/cycle",
      ratio (sum ns sims) (float_of_int (Layer.counter "sim.cycles")) );
    ("uarch.sim_alloc_words_per_instr", "words/instr", words_per sims);
    ("analysis.iw_ns_per_instr", "ns/instr", ns_per (one "analysis.iw"));
    ("analysis.iw_alloc_words_per_instr", "words/instr", words_per (one "analysis.iw"));
    ("analysis.profile_ns_per_instr", "ns/instr", ns_per (one "analysis.profile"));
    ("analysis.profile_alloc_words_per_instr", "words/instr", words_per (one "analysis.profile"));
    ("core.evaluate_us", "us", ns_per (one "core.evaluate") *. 1e-3);
    ("core.evaluate_alloc_words", "words", words_per (one "core.evaluate"));
    ("exec.tasks", "tasks/round", ratio (float_of_int (Layer.counter "pool.tasks")) rounds);
    ("exec.busy_s", "s/round", ratio busy_s rounds);
    ("exec.utilization", "ratio", ratio busy_s (float_of_int s.domains *. traced_s));
    ("exec.longest_task_s", "s", float_of_int task.max_ns *. 1e-9);
    ("gc.minor_words", "words/round", ratio minor_words rounds);
    ("gc.major_collections", "count/round", ratio (float_of_int major_collections) rounds);
    ("obs.overhead_pct", "%", (ratio traced_wall wall_s -. 1.0) *. 100.0);
    ("sim_minstr_per_s", "Minstr/s", ratio (float_of_int s.sim_instructions) wall_s *. 1e-6);
    ("model_evals_per_s", "evals/s", ratio (float_of_int s.evaluations) wall_s);
    ("cpi_mape_pct", "%", accuracy (fun (m, _, _) -> m));
    ("cpi_worst_ape_pct", "%", accuracy (fun (_, w, _) -> w));
    ("cpi_mape_heldout_pct", "%", accuracy (fun (_, _, h) -> h));
  ]

let trace_dir = "_perfbench"

(* Every per-layer metric, the span aggregates and the Fom_obs
   counters of the traced sections, as one JSON file. *)
let write_trace ~name ~seed metrics =
  let module J = Fom_util.Json in
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  let path = Filename.concat trace_dir (Printf.sprintf "trace-%s-seed%d.json" name seed) in
  let seconds ns = J.Float (float_of_int ns *. 1e-9) in
  J.write_file ~path
    (J.Obj
       [
         ("workload", J.String name);
         ("seed", J.Int seed);
         ( "per_layer",
           J.Obj
             (List.map
                (fun (m, unit, v) -> (m, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
                metrics) );
         ( "spans",
           J.Obj
             (List.map
                (fun (span, (t : Layer.span_total)) ->
                  ( span,
                    J.Obj
                      [
                        ("count", J.Int t.count);
                        ("total_s", seconds t.total_ns);
                        ("self_s", seconds t.self_ns);
                        ("max_s", seconds t.max_ns);
                      ] ))
                (Layer.sorted Layer.spans)) );
         ("counters", J.Obj (List.map (fun (c, v) -> (c, J.Int v)) (Layer.sorted Layer.counters)));
       ]);
  path

let print_spans () =
  Printf.printf "%-28s %8s %12s %12s %12s\n" "span" "count" "total_s" "self_s" "max_s";
  List.iter
    (fun (name, (t : Layer.span_total)) ->
      let s ns = float_of_int ns *. 1e-9 in
      Printf.printf "%-28s %8d %12.6f %12.6f %12.6f\n" name t.count (s t.total_ns) (s t.self_ns)
        (s t.max_ns))
    (Layer.sorted Layer.spans)

let run (module W : WORKLOAD) ~seed ~seconds ~trace =
  let report = Report.create () in
  let expected = ref None in
  (* Check a round, and require its digest to equal the first
     round's. *)
  let checked env r =
    let fp = Fingerprint.create () in
    W.check report env r fp;
    let d = Fingerprint.hex fp in
    match !expected with
    | None ->
        expected := Some d;
        Printf.printf "digest %s seed %d: %s\n" W.name seed d
    | Some first ->
        if not (String.equal d first) then
          Report.require report "determinism"
            (Some "a round's results differ from the first round's")
  in
  (* One timed round of [env], checked untimed after it. *)
  let timed env =
    let r, dt = Layer.time (fun () -> W.round env) in
    checked env r;
    (r, dt)
  in
  if not trace then begin
    (* Compacting first keeps earlier set-ups' garbage out of the next
       one's timing and out of the peak memory; the previous set-up's
       environment is dead by then. *)
    let rec segments k setups rounds =
      if k = 0 then (setups, rounds)
      else begin
        Gc.compact ();
        let env, setup_dt = Layer.time (fun () -> W.setup ~traced:false ~seed) in
        let first = ref None in
        let times =
          Layer.repeat ~seconds:(seconds /. float_of_int setup_repeats) (fun () ->
              let r, dt = timed env in
              if Option.is_none !first then first := Some r;
              dt)
        in
        (match !first with
        | Some r when k = setup_repeats -> ignore (W.summary env r)
        | _ -> ());
        segments (k - 1) (setup_dt :: setups) (rounds @ times)
      end
    in
    let setups, rounds = segments setup_repeats [] [] in
    let setup_s = Layer.median setups and wall_s = Layer.median rounds in
    Printf.printf "%s: setup %.3f s (median of %s), %d rounds, median round %.4f s\n" W.name setup_s
      (String.concat " " (List.rev_map (Printf.sprintf "%.3f") setups))
      (List.length rounds) wall_s;
    Report.metric report "setup_s" ~unit:"s" setup_s;
    Report.metric report "wall_s" ~unit:"s" wall_s;
    Report.metric report "peak_rss_mb" ~unit:"MB" (Layer.peak_rss_mb ())
  end
  else begin
    let env = Layer.traced (fun () -> W.setup ~traced:true ~seed) in
    let first, _ = timed env in
    let s = W.summary env first in
    let tenv = W.traced_env env first in
    let minor = ref 0.0 and major = ref 0 in
    let traced_round () =
      let r, dt =
        Layer.traced (fun () ->
            let minor0, major0 = Layer.gc_counts () in
            let r, dt = Layer.time (fun () -> W.round tenv) in
            let minor1, major1 = Layer.gc_counts () in
            minor := !minor +. (minor1 -. minor0);
            major := !major + (major1 - major0);
            (r, dt))
      in
      checked tenv r;
      dt
    in
    let pairs = Layer.repeat ~seconds (fun () -> (snd (timed tenv), traced_round ())) in
    Report.require report "span buffers"
      (if !Layer.dropped = 0 then None
       else Some (Printf.sprintf "%d span events dropped" !Layer.dropped));
    let traced = List.map snd pairs in
    let wall_s = Layer.median (List.map fst pairs) in
    let metrics =
      per_layer ~s ~wall_s ~traced_wall:(Layer.median traced)
        ~traced_s:(List.fold_left ( +. ) 0.0 traced)
        ~traced_rounds:(List.length traced) ~gc:(!minor, !major)
    in
    Printf.printf "%s: %d untraced and %d traced rounds, median %.4f s and %.4f s\n" W.name
      (List.length pairs) (List.length traced) wall_s (Layer.median traced);
    print_spans ();
    Printf.printf "per-layer metrics: %s\n" (write_trace ~name:W.name ~seed metrics);
    List.iter (fun (m, unit, v) -> Report.metric report m ~unit v) metrics
  end;
  report
