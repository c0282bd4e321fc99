(* Benchmark regression gate.

     dune exec bench/compare.exe -- baseline.json current.json

   Both inputs are files written by [bench/main.exe --json]. The actual
   comparison lives in [Compare_core] (so the unit suite can test it);
   this file is only argument parsing and the exit code.

   Exit 1 on any failure: a wall-clock regression past the threshold, a
   drifted deterministic field, a baseline entry missing from the
   current run, or nothing comparable at all. [--ignore-wall] skips the
   wall check, for same-build comparisons like --jobs 1 vs --jobs N. *)

let () =
  let usage () =
    prerr_endline
      "usage: compare.exe BASELINE.json CURRENT.json [--threshold PCT] [--ignore-wall]";
    exit 2
  in
  let threshold_pct = ref 15.0 in
  let ignore_wall = ref false in
  let rec parse paths = function
    | "--threshold" :: pct :: rest ->
        (match float_of_string_opt pct with
        | Some pct when pct > 0.0 -> threshold_pct := pct
        | _ -> usage ());
        parse paths rest
    | "--threshold" :: [] -> usage ()
    | "--ignore-wall" :: rest ->
        ignore_wall := true;
        parse paths rest
    | path :: rest -> parse (path :: paths) rest
    | [] -> List.rev paths
  in
  let baseline_path, current_path =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [ a; b ] -> (a, b)
    | _ -> usage ()
  in
  let load path =
    (* a malformed or missing input is usage error 2, not failure 1 — CI
       distinguishes "the gate tripped" from "the gate never ran" *)
    try Compare_core.load path
    with Failure msg ->
      prerr_endline msg;
      exit 2
  in
  let baseline = load baseline_path and current = load current_path in
  let report =
    Compare_core.compare_runs ~threshold_pct:!threshold_pct ~ignore_wall:!ignore_wall
      ~baseline ~current ()
  in
  List.iter print_endline report.Compare_core.lines;
  if report.Compare_core.compared = 0 then begin
    Printf.printf "no comparable entries between %s and %s\n" baseline_path current_path;
    exit 1
  end;
  if report.Compare_core.failures > 0 then begin
    Printf.printf "%d failure(s) against %s\n" report.Compare_core.failures baseline_path;
    exit 1
  end
  else
    Printf.printf "all %d entries within %.0f%% of %s\n" report.Compare_core.compared
      !threshold_pct baseline_path
