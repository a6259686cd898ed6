(* sim-sweep: the detailed simulator, sequential on one domain, over the
   twelve presets on seven machines, plus two micro-workloads that must
   reach the machine width. Fom_uarch, with Fom_cache and Fom_branch
   inside it, does nearly all the timed work: the presets range from
   memory-bound (mcf) to I-cache-bound (vortex) to branch-hard (vpr),
   and the ideal machines isolate the issue kernel from the cache and
   predictor models. *)

module Config = Fom_uarch.Config
module Stats = Fom_uarch.Stats
module Hierarchy = Fom_cache.Hierarchy
module Packed = Fom_trace.Packed
module Profile = Fom_analysis.Profile

let name = "sim-sweep"

(* Instructions retired per preset simulation and per micro run. *)
let n = 100_000
let n_micro = 50_000
let ideal = Config.ideal Config.baseline
let real = Config.baseline

(* The five Figure 2 machines, the depth-9 real machine (Figure 9) and
   the Figure 14 machine. *)
let machines =
  [
    ("ideal", ideal);
    ("real", real);
    ("bp-only", Config.with_predictor Fom_branch.Predictor.default_spec ideal);
    ("ic-only", Config.with_cache Hierarchy.ideal_except_l1i ideal);
    ("dc-only", Config.with_cache Hierarchy.ideal_except_data ideal);
    ("real-d9", Config.with_depth 9 real);
    ("fig14", Config.with_cache Hierarchy.fig14 ideal);
  ]

(* Machines that make exactly one structure of the ideal machine
   real. *)
let single_structure = [ "bp-only"; "ic-only"; "dc-only"; "fig14" ]
let micros = [ Fom_workloads.Micro.independent; Fom_workloads.Micro.loopy ]

(* The packing covers what the machine fetches past the last retired
   instruction. *)
let span = List.fold_left (fun acc (_, c) -> max acc (Config.inflight_span c)) 0 machines
let probes = List.map (fun (m, _) -> (m, Layer.probe ("uarch.sim." ^ m))) machines

type env = {
  traces : (string * Packed.t) list;
  micro_traces : (string * Packed.t) list;
  profiles : (string * (Profile.t * Profile.t)) list Lazy.t;
}

type sim = (Stats.t, string) result
type result = { presets : (string * (string * sim) list) list; micro : (string * sim) list }

(* Functional profiles of each preset's first [n] instructions and of
   [n] plus the real machine's in-flight span, for the front-end
   check. *)
let profile_bounds ~n packed =
  let profile n =
    Profile.run_source ~cache:real.cache ~predictor:real.predictor ~latencies:real.latencies
      (Packed.to_source ~wrap:false packed)
      ~n
  in
  (profile n, profile (n + Config.inflight_span real))

let setup ~traced:_ ~seed =
  let pack n c =
    (Presets.name c, Presets.pack ~stream_seed:(Presets.stream_seed ~seed c) ~n:(n + span) c)
  in
  let traces = List.map (pack n) Presets.all in
  {
    traces;
    micro_traces = List.map (pack n_micro) micros;
    profiles = lazy (List.map (fun (p, packed) -> (p, profile_bounds ~n packed)) traces);
  }

let traced_env env _ = env

let simulate machine config packed ~n =
  Report.attempt (fun () ->
      Layer.call (List.assoc machine probes) ~units:n (fun () ->
          Fom_uarch.Simulate.run_packed config packed ~n))

let round env =
  {
    presets =
      List.map
        (fun (p, packed) -> (p, List.map (fun (m, c) -> (m, simulate m c packed ~n)) machines))
        env.traces;
    micro =
      List.map (fun (p, packed) -> (p, simulate "ideal" ideal packed ~n:n_micro)) env.micro_traces;
  }

let check report env r fp =
  let op what sim checks =
    match sim with
    | Error e -> Report.op report what (Some e)
    | Ok s ->
        Fingerprint.stats fp s;
        Report.op report what (Checks.first (checks s))
  in
  List.iter
    (fun (p, sims) ->
      let ideal_stats = List.assoc "ideal" sims in
      List.iter
        (fun (m, sim) ->
          let config = List.assoc m machines in
          op (p ^ "/" ^ m) sim (fun s ->
              [
                (fun () -> Checks.retired ~n ~width:config.Config.width s);
                (fun () -> Checks.ipc_within_width ~width:config.Config.width s);
                (fun () -> if m = "ideal" then Checks.no_miss_events s else None);
                (fun () ->
                  match ideal_stats with
                  | Ok ideal when List.mem m single_structure -> Checks.not_faster_than ~ideal s
                  | _ -> None);
                (fun () ->
                  if m = "real" then
                    let lo, hi = List.assoc p (Lazy.force env.profiles) in
                    Checks.front_end_within ~lo ~hi s
                  else None);
              ]))
        sims)
    r.presets;
  List.iter
    (fun (p, sim) ->
      op (p ^ "/ideal") sim (fun s ->
          [
            (fun () -> Checks.retired ~n:n_micro ~width:ideal.Config.width s);
            (fun () -> Checks.reaches_width ~width:ideal.Config.width s);
          ]))
    r.micro

let summary env _ =
  let packs = env.traces @ env.micro_traces in
  {
    Protocol.packed_bytes = List.fold_left (fun acc (_, p) -> acc + Presets.packed_bytes p) 0 packs;
    domains = 1;
    sim_instructions =
      (n * List.length machines * List.length env.traces) + (n_micro * List.length micros);
    evaluations = 0;
    accuracy = None;
  }
