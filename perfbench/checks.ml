(* Result checks. Each compares a result against an independent
   computation or a property the method must have, and returns [None]
   when it holds or [Some reason] when it does not. *)

module Stats = Fom_uarch.Stats
module Cpi = Fom_model.Cpi
module Iw_curve = Fom_analysis.Iw_curve
module Profile = Fom_analysis.Profile

let fail fmt = Printf.ksprintf Option.some fmt

(* The first failing check of a list, if any. *)
let first checks = List.find_map (fun c -> c ()) checks

(* Detailed simulation. *)

(* A run stops at the end of the cycle in which its [n]th instruction
   retires, and a cycle retires at most [width]. *)
let retired ~n ~width (s : Stats.t) =
  if n <= s.instructions && s.instructions < n + width then None
  else fail "retired %d instructions, expected %d to %d" s.instructions n (n + width - 1)

let ipc_within_width ~width (s : Stats.t) =
  if s.cycles > 0 && s.instructions <= width * s.cycles then None
  else fail "IPC %d/%d exceeds width %d" s.instructions s.cycles width

let no_miss_events (s : Stats.t) =
  let events =
    s.branch_mispredictions + s.l1i_misses + s.l2i_misses + s.short_data_misses
    + s.long_data_misses + s.dtlb_misses
  in
  if events = 0 then None else fail "ideal machine reported %d miss events" events

let not_faster_than ~(ideal : Stats.t) (s : Stats.t) =
  if s.cycles >= ideal.cycles then None
  else fail "%d cycles, fewer than the ideal machine's %d" s.cycles ideal.cycles

(* The machine fetches past the [n] instructions it retires, by at most
   its in-flight span, so each front-end event count lies between a
   functional profile of [n] instructions ([lo]) and one of [n] plus
   that span ([hi]). *)
let front_end_within ~(lo : Profile.t) ~(hi : Profile.t) (s : Stats.t) =
  let within what sim lo hi =
    if lo <= sim && sim <= hi then None
    else fail "%s: simulated %d outside profiled [%d, %d]" what sim lo hi
  in
  first
    [
      (fun () ->
        within "mispredictions" s.branch_mispredictions lo.Profile.mispredictions
          hi.Profile.mispredictions);
      (fun () -> within "L1I misses" s.l1i_misses lo.Profile.l1i_misses hi.Profile.l1i_misses);
      (fun () -> within "L2I misses" s.l2i_misses lo.Profile.l2i_misses hi.Profile.l2i_misses);
    ]

let reaches_width ~width (s : Stats.t) =
  if Stats.ipc s >= 0.99 *. float_of_int width then None
  else fail "IPC %.4f below 99%% of width %d" (Stats.ipc s) width

let positive_cpi what cpi =
  if Float.is_finite cpi && cpi > 0.0 then None
  else fail "%s CPI %g not finite and positive" what cpi

(* Characterization. *)

let curve_shape (c : Iw_curve.t) =
  let rec go = function
    | (a : Iw_curve.point) :: (b :: _ as rest) ->
        if b.window <= a.window then fail "windows not increasing at %d" b.window
        else if b.ipc < a.ipc then fail "IPC falls from %g to %g at window %d" a.ipc b.ipc b.window
        else go rest
    | _ -> None
  in
  match
    List.find_opt (fun (p : Iw_curve.point) -> p.ipc > float_of_int p.window) c.points
  with
  | Some p -> fail "IPC %g exceeds window %d" p.ipc p.window
  | None -> if c.points = [] then fail "empty IW curve" else go c.points

let fit_quality (c : Iw_curve.t) =
  let r2 = c.fit.Fom_util.Fit.r2 in
  if r2 >= 0.97 then None else fail "power-law fit r2 %.4f below 0.97" r2

(* A serial dependence chain issues one instruction per cycle at any
   window size. *)
let flat (c : Iw_curve.t) =
  let ipcs = List.map (fun (p : Iw_curve.point) -> p.ipc) c.points in
  let lo = List.fold_left Float.min Float.infinity ipcs
  and hi = List.fold_left Float.max 0.0 ipcs in
  if hi > 0.0 && hi -. lo <= 0.01 *. hi then None
  else fail "IW curve not flat: IPC spans %g..%g" lo hi

(* Model evaluation. *)

let components_sum ~total (b : Cpi.breakdown) =
  let sum = b.dtlb +. b.dcache +. b.l2i +. b.l1i +. b.branch +. b.steady in
  if Float.abs (total -. sum) <= 1e-9 *. Float.abs sum then None
  else fail "total CPI %g is not the sum of its components %g" total sum

let steady_ipc_within_width ~width (b : Cpi.breakdown) =
  if b.steady > 0.0 && 1.0 /. b.steady <= float_of_int width *. (1.0 +. 1e-12) then None
  else fail "steady-state IPC %g exceeds width %d" (1.0 /. b.steady) width

let branch_not_decreasing ~(shallower : Cpi.breakdown) (b : Cpi.breakdown) =
  if b.branch >= shallower.branch then None
  else fail "branch CPI falls from %g to %g with a deeper front end" shallower.branch b.branch

(* Paper Figure 11: the I-cache miss penalty does not depend on the
   front-end depth. *)
let icache_depth_independent ~(reference : Cpi.breakdown) (b : Cpi.breakdown) =
  if b.l1i = reference.l1i && b.l2i = reference.l2i then None
  else
    fail "I-cache CPI (%g, %g) differs from (%g, %g) at another depth" b.l1i b.l2i reference.l1i
      reference.l2i

(* Accuracy: absolute percentage error of model against simulation,
   and the paper's bounds (5.8% mean, 13% worst) on the presets' own
   seeds. *)
let ape ~model ~sim = Float.abs (model -. sim) /. sim *. 100.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let worst xs = List.fold_left Float.max 0.0 xs

let paper_accuracy apes =
  let m = mean apes and w = worst apes in
  if m <= 5.8 && w <= 13.0 then None
  else fail "model error mean %.2f%% / worst %.2f%% outside the paper's 5.8%% / 13%%" m w
