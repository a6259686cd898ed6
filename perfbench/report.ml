(* Operation tallies, metrics, and the result line.

   An operation is one simulation, one characterization or one model
   evaluation; one whose check fails counts as failed. Checks over a
   whole round (the accuracy bound, rounds repeating bit for bit) set
   [correct] to false instead. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable metrics : (string * (float * string)) list;
}

let create () = { attempted = 0; failed = 0; problems = []; metrics = [] }

(* Print at most this many failure reasons; the counts say the rest. *)
let max_reasons = 20

let op t what result =
  t.attempted <- t.attempted + 1;
  match result with
  | None -> ()
  | Some reason ->
      t.failed <- t.failed + 1;
      if t.failed <= max_reasons then Printf.eprintf "FAILED %s: %s\n%!" what reason

let require t what result =
  match result with
  | None -> ()
  | Some reason ->
      t.problems <- (what ^ ": " ^ reason) :: t.problems;
      Printf.eprintf "CHECK FAILED %s: %s\n%!" what reason

(* The result of one operation; an exception fails it like a failed
   check. *)
let attempt f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)

let metric t name ~unit value = t.metrics <- t.metrics @ [ (name, (value, unit)) ]

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_line t =
  let metrics =
    List.map
      (fun (name, (value, unit)) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit)
      t.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.problems = []) t.attempted t.failed (String.concat ", " metrics)
