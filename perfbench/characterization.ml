(* Characterization of a packed trace: the IW sweep plus the
   functional profile, at the reproduction harness's scale (200k
   profiled instructions, 30k per IW point) on the baseline machine. *)

module Characterize = Fom_analysis.Characterize
module Iw_curve = Fom_analysis.Iw_curve
module Profile = Fom_analysis.Profile
module Params = Fom_model.Params

let n_profile = 200_000
let n_iw = 30_000
let params = Params.baseline
let max_window = List.fold_left max 1 Iw_curve.default_windows

(* Instructions a packing needs for both passes. *)
let packed_length = max n_profile (n_iw + max_window)

type t = { curve : Iw_curve.t; profile : Profile.t; inputs : Fom_model.Inputs.t }

let run packed =
  let curve, profile, inputs =
    Characterize.curve_and_inputs_of_packed ~iw_instructions:n_iw ~params packed ~n:n_profile
  in
  { curve; profile; inputs }

let iw_probe = Layer.probe "analysis.iw"
let profile_probe = Layer.probe "analysis.profile"

(* The traced run times the two passes as separate calls, so each gets
   its own span and allocation count, and checks that they reproduce
   the composite's curve and profile exactly before returning the
   composite's result: [reference] if given (an untraced result for the
   same trace), otherwise one computed here outside the probes. *)
let traced ?reference packed =
  let reference = match reference with Some r -> r | None -> run packed in
  let curve =
    Layer.call iw_probe
      ~units:(n_iw * List.length Iw_curve.default_windows)
      (fun () -> Iw_curve.measure_packed ~n:n_iw packed)
  in
  let profile =
    Layer.call profile_probe ~units:n_profile (fun () ->
        Profile.run_source ~burst_window:params.Params.window_size
          ~group_window:params.Params.rob_size
          (Fom_trace.Packed.to_source ~wrap:false packed)
          ~n:n_profile)
  in
  if
    Fingerprint.(of_ curve) curve <> Fingerprint.(of_ curve) reference.curve
    || Fingerprint.(of_ profile) profile <> Fingerprint.(of_ profile) reference.profile
  then failwith "traced IW sweep or profile differs from the composite characterization";
  reference
