(* Benchmark entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is the result as one JSON object:
   correct, attempted, failed and metrics (the end-to-end metrics, or
   with --trace 1 the per-layer metrics of a separate traced run). *)

let workloads : (string * (module Protocol.WORKLOAD)) list =
  [
    (Sim_sweep.name, (module Sim_sweep));
    (Model_vs_sim.name, (module Model_vs_sim));
    (Design_sweep.name, (module Design_sweep));
  ]

let usage =
  Printf.sprintf "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1"
    (String.concat "|" (List.map fst workloads))

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref 0 in
  let int_arg r = Arg.Int (fun v -> r := Some v) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", int_arg seed, "N seed the inputs are made from");
      ("--seconds", int_arg seconds, "S seconds of timed rounds");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match (List.assoc_opt !workload workloads, !seed, !seconds) with
  | Some w, Some seed, Some seconds when seconds > 0 && (!trace = 0 || !trace = 1) ->
      let report = Protocol.run w ~seed ~seconds:(float_of_int seconds) ~trace:(!trace = 1) in
      print_endline (Report.json_line report)
  | _ ->
      prerr_endline usage;
      exit 2
