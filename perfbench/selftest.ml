(* Self-test of the benchmark's checks: each must accept a genuine
   result and reject a deliberately corrupted copy of it. Exits 1 if
   any does not.

     dune build --root . ./perfbench/selftest.exe && ./_build/default/perfbench/selftest.exe *)

module Config = Fom_uarch.Config
module Stats = Fom_uarch.Stats
module Cpi = Fom_model.Cpi
module Iw_curve = Fom_analysis.Iw_curve

let n = 20_000
let real = Config.baseline
let ideal = Config.ideal real
let width = real.width

let packed config ~n = Presets.pack ~n config

let gzip = Fom_workloads.Spec2000.find "gzip"
let gzip_packed = packed gzip ~n:Characterization.packed_length
let sim config = Fom_uarch.Simulate.run_packed config gzip_packed ~n
let real_stats = sim real
let ideal_stats = sim ideal
let bp_stats = sim (Config.with_predictor Fom_branch.Predictor.default_spec ideal)
let lo, hi = Sim_sweep.profile_bounds ~n gzip_packed

let independent =
  Fom_uarch.Simulate.run_packed ideal (packed Fom_workloads.Micro.independent ~n:(n + 1024)) ~n

let char = Characterization.run gzip_packed

let serial =
  Iw_curve.measure_packed ~n:Characterization.n_iw
    (packed Fom_workloads.Micro.serial_chain ~n:Characterization.packed_length)

let evaluate depth =
  Cpi.evaluate
    { Characterization.params with Fom_model.Params.pipeline_depth = depth }
    char.inputs

let shallow = evaluate 5
let deep = evaluate 6

(* Errors of a model that is off by [pct] percent on every preset,
   against the gzip simulation's CPI. *)
let apes pct =
  let sim = Stats.cpi real_stats in
  List.init 12 (fun _ -> Checks.ape ~model:(sim *. (1.0 +. (pct /. 100.0))) ~sim)

let with_ipcs c ipcs =
  {
    c with
    Iw_curve.points =
      List.map2 (fun (p : Iw_curve.point) ipc -> { p with ipc }) c.Iw_curve.points ipcs;
  }

let ipcs (c : Iw_curve.t) = List.map (fun (p : Iw_curve.point) -> p.ipc) c.points

(* Swap the IPCs of the two largest windows, so the curve falls. *)
let falling c =
  match List.rev (ipcs c) with
  | a :: b :: rest -> with_ipcs c (List.rev (b :: a :: rest))
  | _ -> c

let cases =
  [
    ( "retired count",
      "one instruction more than a run of n can retire",
      (fun s -> Checks.retired ~n ~width s),
      real_stats,
      { real_stats with Stats.instructions = n + width } );
    ( "IPC within width",
      "one cycle fewer than a full-width run needs",
      Checks.ipc_within_width ~width,
      independent,
      { independent with Stats.cycles = (independent.Stats.instructions / width) - 1 } );
    ( "ideal machine has no miss events",
      "one misprediction on the ideal machine",
      Checks.no_miss_events,
      ideal_stats,
      { ideal_stats with Stats.branch_mispredictions = 1 } );
    ( "no single structure beats ideal",
      "a branch-predictor machine one cycle faster than ideal",
      Checks.not_faster_than ~ideal:ideal_stats,
      bp_stats,
      { bp_stats with Stats.cycles = ideal_stats.Stats.cycles - 1 } );
    ( "front-end events match the profile",
      "one L1I miss more than fetch-ahead allows",
      Checks.front_end_within ~lo ~hi,
      real_stats,
      { real_stats with Stats.l1i_misses = hi.Fom_analysis.Profile.l1i_misses + 1 } );
    ( "micro-workload reaches width",
      "2% more cycles",
      Checks.reaches_width ~width,
      independent,
      { independent with Stats.cycles = independent.Stats.cycles * 102 / 100 } );
  ]

let curve_cases =
  [
    ( "IW curve non-decreasing",
      "a decreasing IW curve",
      Checks.curve_shape,
      char.curve,
      falling char.curve );
    ( "IW curve IPC within window",
      "IPC above the window at the smallest window",
      Checks.curve_shape,
      char.curve,
      with_ipcs char.curve
        (List.mapi (fun i ipc -> if i = 0 then 1e6 else ipc) (ipcs char.curve)) );
    ( "fit quality",
      "r2 of 0.9",
      Checks.fit_quality,
      char.curve,
      { char.curve with fit = { char.curve.fit with r2 = 0.9 } } );
    ( "serial-chain curve flat",
      "IPC 5% higher at the largest window",
      Checks.flat,
      serial,
      with_ipcs serial
        (List.mapi
           (fun i ipc -> if i = List.length serial.points - 1 then ipc *. 1.05 else ipc)
           (ipcs serial)) );
  ]

let model_cases =
  [
    ( "total is the sum of components",
      "a breakdown whose total is not its sum",
      (fun b -> Checks.components_sum ~total:(Cpi.total shallow) b),
      shallow,
      { shallow with Cpi.branch = shallow.branch +. 0.01 } );
    ( "branch CPI non-decreasing in depth",
      "a deeper front end with less branch CPI",
      Checks.branch_not_decreasing ~shallower:shallow,
      deep,
      { deep with Cpi.branch = shallow.branch *. 0.99 } );
    ( "I-cache CPI independent of depth",
      "L1I CPI changed at another depth",
      Checks.icache_depth_independent ~reference:shallow,
      deep,
      { deep with Cpi.l1i = deep.l1i +. 1e-9 } );
    ( "steady-state IPC within width",
      "steady-state CPI below 1/width",
      Checks.steady_ipc_within_width ~width,
      shallow,
      { shallow with Cpi.steady = 0.9 /. float_of_int width } );
    ( "finite positive CPI",
      "a NaN CPI",
      (fun b -> Checks.positive_cpi "model" (Cpi.total b)),
      shallow,
      { shallow with Cpi.dcache = Float.nan } );
  ]

let accuracy_case =
  ( "paper accuracy bound",
    "a mean error of 6% (above 5.8%)",
    Checks.paper_accuracy,
    apes 3.0,
    apes 6.0 )

let run (name, corruption, check, genuine, corrupted) =
  match (check genuine, check corrupted) with
  | None, Some why ->
      Printf.printf "ok   %s: accepts the genuine result, rejects %s (%s)\n" name corruption why;
      true
  | Some why, _ ->
      Printf.printf "FAIL %s: rejects the genuine result: %s\n" name why;
      false
  | None, None ->
      Printf.printf "FAIL %s: accepts %s\n" name corruption;
      false

let () =
  let sims = List.map run cases in
  let curves = List.map run curve_cases in
  let models = List.map run model_cases in
  let results = sims @ curves @ models @ [ run accuracy_case ] in
  let failed = List.length (List.filter not results) in
  Printf.printf "%d of %d checks reject their corrupted result\n" (List.length results - failed)
    (List.length results);
  if failed > 0 then exit 1
