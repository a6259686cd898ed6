(* A digest of every simulated statistic and model CPI a run produced.
   Floats enter by their bit patterns, so two commits print the same
   digest only if their results are bit-identical. The digest depends
   on the workload and seed, never on the run length. *)

module Stats = Fom_uarch.Stats
module Cpi = Fom_model.Cpi
module Iw_curve = Fom_analysis.Iw_curve
module Profile = Fom_analysis.Profile

type t = Buffer.t

let create () = Buffer.create 4096
let int t x = Buffer.add_int64_le t (Int64.of_int x)
let float t x = Buffer.add_int64_le t (Int64.bits_of_float x)

let stats t (s : Stats.t) =
  List.iter (int t)
    [
      s.instructions;
      s.cycles;
      s.branch_mispredictions;
      s.l1i_misses;
      s.l2i_misses;
      s.short_data_misses;
      s.long_data_misses;
      s.dtlb_misses;
      s.mispredictions_under_long_miss;
      s.imisses_under_long_miss;
    ];
  List.iter (float t)
    [
      s.window_at_branch_issue;
      s.rob_ahead_of_long_miss;
      s.mean_window_occupancy;
      s.mean_rob_occupancy;
    ]

let breakdown t (b : Cpi.breakdown) =
  List.iter (float t) [ b.steady; b.branch; b.l1i; b.l2i; b.dcache; b.dtlb ]

let curve t (c : Iw_curve.t) =
  List.iter
    (fun (p : Iw_curve.point) ->
      int t p.window;
      float t p.ipc)
    c.points;
  List.iter (float t) [ c.fit.alpha; c.fit.beta; c.fit.r2 ]

let distribution t d =
  List.iter
    (fun (k, count) ->
      int t k;
      int t count)
    (Fom_util.Distribution.to_list d)

let profile t (p : Profile.t) =
  List.iter (int t)
    [
      p.instructions;
      p.branches;
      p.mispredictions;
      p.l1i_misses;
      p.l2i_misses;
      p.short_misses;
      p.long_misses;
      p.dtlb_misses;
    ];
  List.iter (fun (_, count) -> int t count) p.class_counts;
  float t p.avg_latency;
  List.iter (distribution t) [ p.mispred_bursts; p.long_miss_groups; p.dtlb_groups ]

let hex t = Digest.to_hex (Digest.string (Buffer.contents t))

let of_ f x =
  let t = create () in
  f t x;
  hex t
