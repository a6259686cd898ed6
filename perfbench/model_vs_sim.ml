(* model-vs-sim: the paper's Section 5 validation end to end. Per
   preset, a baseline detailed simulation, a characterization (IW
   sweep plus functional profile) and the model in both modes, on the
   presets' own seeds and again on held-out seeds, all as Pool.map
   tasks. It is the only workload that exercises Fom_analysis and
   Fom_exec in its timed region, and the only one that measures
   accuracy.

   The traces are fixed (each preset's own seed, and that seed plus
   1000 for the held-out set), so the accuracy figures repeat exactly
   and the paper's bounds are checked on the seeds the presets were
   calibrated on; the run seed changes nothing here. Tasks are queued
   longest first (simulations, then characterizations) so the end of a
   round leaves little imbalance. *)

module Config = Fom_uarch.Config
module Stats = Fom_uarch.Stats
module Packed = Fom_trace.Packed
module Cpi = Fom_model.Cpi
module Pool = Fom_exec.Pool

let name = "model-vs-sim"
let n = Characterization.n_profile
let machine = Config.baseline
let params = Characterization.params

type case = { label : string; heldout : bool; packed : Packed.t }
type task = Sim of int | Char of int | Serial

type env = {
  cases : case array;
  serial : Packed.t;  (** the serial-chain micro-workload, whose IW curve is flat *)
  tasks : task list;
  reference : Characterization.t array option;
      (** the first round's characterizations, in the traced run's rounds *)
}

type modelled = { char : Characterization.t; refined : Cpi.breakdown; paper : Cpi.breakdown }

type outcome =
  | Simulated of (Stats.t, string) result
  | Characterized of (modelled, string) result
  | Serial_curve of (Fom_analysis.Iw_curve.t, string) result

type result = {
  sims : (Stats.t, string) Stdlib.result array;
  models : (modelled, string) Stdlib.result array;
  serial_curve : (Fom_analysis.Iw_curve.t, string) Stdlib.result;
}

let packed_length = max (n + Config.inflight_span machine) Characterization.packed_length

let setup ~traced:_ ~seed:_ =
  let case heldout c =
    let c = if heldout then Presets.heldout c else c in
    { label = Presets.name c; heldout; packed = Presets.pack ~n:packed_length c }
  in
  let cases =
    Array.of_list (List.map (case false) Presets.all @ List.map (case true) Presets.all)
  in
  let k = Array.length cases in
  {
    cases;
    serial = Presets.pack ~n:Characterization.packed_length Fom_workloads.Micro.serial_chain;
    tasks = List.init k (fun i -> Sim i) @ List.init k (fun i -> Char i) @ [ Serial ];
    reference = None;
  }

(* The traced rounds reuse the first round's characterizations. *)
let traced_env env first =
  let chars =
    Array.map
      (function
        | Ok m -> m.char | Error e -> failwith ("no untraced characterization to reuse: " ^ e))
      first.models
  in
  { env with reference = Some chars }

let sim_probe = Layer.probe "uarch.sim.real"
let eval_probe = Layer.probe "core.evaluate"

let run_task env = function
  | Sim i ->
      Simulated
        (Report.attempt (fun () ->
             Layer.call sim_probe ~units:n (fun () ->
                 Fom_uarch.Simulate.run_packed machine env.cases.(i).packed ~n)))
  | Char i ->
      Characterized
        (Report.attempt (fun () ->
             let packed = env.cases.(i).packed in
             let char =
               match env.reference with
               | None -> Characterization.run packed
               | Some chars -> Characterization.traced ~reference:chars.(i) packed
             in
             let evaluate ?branch_mode ?dcache_mode () =
               Layer.call eval_probe ~units:1 (fun () ->
                   Cpi.evaluate ?branch_mode ?dcache_mode params char.inputs)
             in
             {
               char;
               refined = evaluate ();
               paper = evaluate ~branch_mode:Cpi.Paper_constant ~dcache_mode:Cpi.Paper_delay ();
             }))
  | Serial ->
      Serial_curve
        (Report.attempt (fun () ->
             Layer.call Characterization.iw_probe
               ~units:(Characterization.n_iw * List.length Fom_analysis.Iw_curve.default_windows)
               (fun () ->
                 Fom_analysis.Iw_curve.measure_packed ~n:Characterization.n_iw env.serial)))

let round env =
  let pool = Pool.create ~jobs:(Pool.recommended_domain_count ()) () in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.map pool
          ~f:(fun task -> (task, run_task env task))
          env.tasks)
  in
  let k = Array.length env.cases in
  let sims = Array.make k (Error "not run") and models = Array.make k (Error "not run") in
  let serial_curve = ref (Error "not run") in
  List.iter
    (function
      | Sim i, Simulated r -> sims.(i) <- r
      | Char i, Characterized r -> models.(i) <- r
      | Serial, Serial_curve r -> serial_curve := r
      | _ -> invalid_arg "model-vs-sim: task and outcome kinds differ")
    outcomes;
  { sims; models; serial_curve = !serial_curve }

(* Absolute percentage error of [mode] against simulation, labelled by
   preset, for the cases that both simulated and characterized. *)
let errors r cases ~heldout mode =
  List.filter_map
    (fun i ->
      match (r.sims.(i), r.models.(i)) with
      | Ok s, Ok m when cases.(i).heldout = heldout ->
          Some (cases.(i).label, Checks.ape ~model:(Cpi.total (mode m)) ~sim:(Stats.cpi s))
      | _ -> None)
    (List.init (Array.length cases) Fun.id)

let apes = List.map snd

let check report env r fp =
  Array.iteri
    (fun i c ->
      let what kind =
        Printf.sprintf "%s%s/%s" c.label (if c.heldout then "@heldout" else "") kind
      in
      (match r.sims.(i) with
      | Error e -> Report.op report (what "sim") (Some e)
      | Ok s ->
          Fingerprint.stats fp s;
          Report.op report (what "sim")
            (Checks.first
               [
                 (fun () -> Checks.retired ~n ~width:machine.Config.width s);
                 (fun () -> Checks.ipc_within_width ~width:machine.Config.width s);
                 (fun () -> Checks.positive_cpi "simulated" (Stats.cpi s));
               ]));
      match r.models.(i) with
      | Error e ->
          List.iter
            (fun kind -> Report.op report (what kind) (Some e))
            [ "characterize"; "refined"; "paper" ]
      | Ok m ->
          Fingerprint.curve fp m.char.curve;
          Fingerprint.profile fp m.char.profile;
          Report.op report (what "characterize")
            (Checks.first
               [
                 (fun () -> Checks.curve_shape m.char.curve);
                 (fun () -> Checks.fit_quality m.char.curve);
               ]);
          List.iter
            (fun (kind, b) ->
              Fingerprint.breakdown fp b;
              Report.op report (what kind)
                (Checks.first
                   [
                     (fun () -> Checks.positive_cpi kind (Cpi.total b));
                     (fun () -> Checks.components_sum ~total:(Cpi.total b) b);
                   ]))
            [ ("refined", m.refined); ("paper", m.paper) ])
    env.cases;
  (match r.serial_curve with
  | Error e -> Report.op report "serial-chain/iw" (Some e)
  | Ok c ->
      Fingerprint.curve fp c;
      Report.op report "serial-chain/iw"
        (Checks.first [ (fun () -> Checks.curve_shape c); (fun () -> Checks.flat c) ]));
  Report.require report "accuracy on the presets' seeds"
    (Checks.paper_accuracy (apes (errors r env.cases ~heldout:false (fun m -> m.refined))))

let summary env r =
  let refined = errors r env.cases ~heldout:false (fun m -> m.refined) in
  let heldout = errors r env.cases ~heldout:true (fun m -> m.refined) in
  let describe what errs =
    let worst = List.fold_left (fun a (p, e) -> if e > snd a then (p, e) else a) ("-", 0.0) errs in
    Printf.sprintf "%s mean %.2f%% worst %.2f%% (%s)" what (Checks.mean (apes errs)) (snd worst)
      (fst worst)
  in
  List.iter
    (fun (what, mode) ->
      print_endline
        (String.concat "; "
           [
             describe
               ("model error, " ^ what ^ ", presets' seeds:")
               (errors r env.cases ~heldout:false mode);
             describe "held-out seeds:" (errors r env.cases ~heldout:true mode);
           ]))
    [ ("refined", fun m -> m.refined); ("paper mode", fun m -> m.paper) ];
  {
    Protocol.packed_bytes =
      Array.fold_left
        (fun acc c -> acc + Presets.packed_bytes c.packed)
        (Presets.packed_bytes env.serial) env.cases;
    domains = Pool.recommended_domain_count ();
    sim_instructions = n * Array.length env.cases;
    evaluations = 2 * Array.length env.cases;
    accuracy =
      Some (Checks.mean (apes refined), Checks.worst (apes refined), Checks.mean (apes heldout));
  }
