(* Benchmark inputs: the twelve SPEC2000 presets, their seeds, and
   trace packing. *)

module Spec2000 = Fom_workloads.Spec2000
module Packed = Fom_trace.Packed

let all = Spec2000.all
let name (c : Fom_trace.Config.t) = c.Fom_trace.Config.name

(* The run seed re-draws each preset's dynamic trace (branch outcomes,
   addresses) over the preset's own static program, so every preset
   keeps its calibrated character; the same run seed always gives the
   same traces. *)
let stream_seed ~seed (c : Fom_trace.Config.t) = Hashtbl.hash (c.seed, seed)

(* Held out from the presets' calibration: each preset's own seed plus
   1000 (bzip2 1101 ... vpr 1112). *)
let heldout (c : Fom_trace.Config.t) = Spec2000.with_seed (c.seed + 1000) c

let pack_probe = Layer.probe "trace.pack"

(* Generate the program and pack the first [n] instructions of its
   trace. *)
let pack ?stream_seed ~n config =
  Layer.call pack_probe ~units:n (fun () ->
      Packed.of_source
        (Fom_trace.Source.of_program ?seed:stream_seed (Fom_trace.Program.generate config))
        ~n)

(* Bytes held by a packing's columns. *)
let packed_bytes (p : Packed.t) =
  let words =
    Array.length p.tag + Array.length p.pc + Array.length p.dst + Array.length p.srcs
    + Array.length p.dep_off + Array.length p.dep_val + Array.length p.mem + Array.length p.ctrl
  in
  words * (Sys.word_size / 8)
