(* design-sweep: the model as a design-space explorer. Set-up
   characterizes the twelve presets; each round evaluates the model
   over width x front-end depth x both model modes for every preset,
   on one domain. Fom_model does all the timed work: this is the
   paper's argument that the model is far cheaper than simulation. *)

module Cpi = Fom_model.Cpi
module Params = Fom_model.Params

let name = "design-sweep"
let widths = [| 1; 2; 4; 8 |]
let depths = Array.init 49 (fun i -> i + 2)

let modes =
  [|
    (Cpi.Measured_burst, Cpi.Rob_fill_corrected); (Cpi.Paper_constant, Cpi.Paper_delay);
  |]

let grid_size = Array.length modes * Array.length widths * Array.length depths

(* Index of a grid point in a preset's batch: depth varies fastest. *)
let index ~mode ~width ~depth =
  (((mode * Array.length widths) + width) * Array.length depths) + depth

let params =
  Array.map
    (fun width ->
      Array.map
        (fun depth -> { Params.baseline with Params.width; pipeline_depth = depth })
        depths)
    widths

type env = { labels : string array; packed_bytes : int; chars : Characterization.t array }

type result = (Cpi.breakdown array, string) Stdlib.result array

(* Each packed trace is dropped once characterized: the sweep needs
   only the model inputs. *)
let setup ~traced ~seed =
  let presets = Array.of_list Presets.all in
  let bytes = ref 0 in
  let chars =
    Array.map
      (fun c ->
        let packed =
          Presets.pack
            ~stream_seed:(Presets.stream_seed ~seed c)
            ~n:Characterization.packed_length c
        in
        bytes := !bytes + Presets.packed_bytes packed;
        if traced then Characterization.traced packed else Characterization.run packed)
      presets
  in
  { labels = Array.map Presets.name presets; packed_bytes = !bytes; chars }

let traced_env env _ = env

let eval_probe = Layer.probe "core.evaluate"

(* One preset's grid, as one traced call: a span per evaluation would
   cost as much as the evaluation. *)
let sweep (char : Characterization.t) =
  Layer.call eval_probe ~units:grid_size (fun () ->
      Array.init grid_size (fun k ->
          let depth = k mod Array.length depths and rest = k / Array.length depths in
          let branch_mode, dcache_mode = modes.(rest / Array.length widths) in
          Cpi.evaluate ~branch_mode ~dcache_mode
            params.(rest mod Array.length widths).(depth)
            char.inputs))

let round env = Array.map (fun char -> Report.attempt (fun () -> sweep char)) env.chars

let check report env (r : result) fp =
  Array.iteri
    (fun i batch ->
      let label = env.labels.(i) in
      match batch with
      | Error e ->
          for _ = 1 to grid_size do
            Report.op report label (Some e)
          done
      | Ok batch ->
          Array.iteri
            (fun mode _ ->
              Array.iteri
                (fun w width ->
                  let at depth = batch.(index ~mode ~width:w ~depth) in
                  Array.iteri
                    (fun d depth ->
                      let b = at d in
                      Fingerprint.breakdown fp b;
                      Report.op report label
                        (Option.map
                           (Printf.sprintf "mode %d, width %d, depth %d: %s" mode width depth)
                           (Checks.first
                           [
                             (fun () -> Checks.components_sum ~total:(Cpi.total b) b);
                             (fun () -> Checks.steady_ipc_within_width ~width b);
                             (fun () ->
                               if d = 0 then None
                               else Checks.branch_not_decreasing ~shallower:(at (d - 1)) b);
                             (fun () -> Checks.icache_depth_independent ~reference:(at 0) b);
                           ])))
                    depths)
                widths)
            modes)
    r

let summary env _ =
  {
    Protocol.packed_bytes = env.packed_bytes;
    domains = 1;
    sim_instructions = 0;
    evaluations = grid_size * Array.length env.chars;
    accuracy = None;
  }
