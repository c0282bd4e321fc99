(* Golden-file generator for the differential performance-equivalence
   suite. Runs every combo in [Equiv_combos.all] against the CURRENT
   library and records the observable outcome. The checked-in golden file
   (test/golden/perf_equiv.json) was generated from the pre-optimization
   protocol core, so the suite proves the optimized hot paths behaviorally
   identical to the implementation they replaced.

     dune exec test/gen_equiv_golden.exe -- [--jobs N] [OUT.json]

   Combos are independent simulation runs, so they fan out over a
   Parallel.Pool ([--jobs]); results are harvested and written in combo
   order, so the file is identical whatever the job count (make check
   regenerates it at --jobs 4 and cmps it against the checked-in
   golden).

   Regenerate only when a combo definition or an intended behavior change
   makes the old goldens stale — never to paper over a mismatch. *)

let () =
  let usage () =
    prerr_endline "usage: gen_equiv_golden.exe [--jobs N] [OUT.json]";
    exit 2
  in
  let jobs = ref (Parallel.Pool.default_jobs ()) in
  let rec parse out = function
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ -> usage ());
        parse out rest
    | "--jobs" :: [] -> usage ()
    | path :: rest -> (
        match out with None -> parse (Some path) rest | Some _ -> usage ())
    | [] -> out
  in
  let out =
    match parse None (List.tl (Array.to_list Sys.argv)) with
    | None -> Equiv_combos.golden_path
    | Some path -> path
  in
  let combos = Equiv_combos.all in
  Printf.printf "running %d combos on %d domain(s)...\n%!" (List.length combos) !jobs;
  let results =
    Parallel.Pool.with_pool ~jobs:!jobs (fun pool ->
        Parallel.Pool.map_exn pool Equiv_combos.run combos)
  in
  let entries =
    List.map2
      (fun (combo : Equiv_combos.combo) (result : Equiv_combos.result) ->
        Printf.printf "  %-24s %d race(s), checksum %d\n%!" combo.Equiv_combos.label
          (List.length result.Equiv_combos.races)
          result.Equiv_combos.mem_checksum;
        Bench_json.Obj
          [
            ("label", Bench_json.String combo.Equiv_combos.label);
            ("result", Equiv_combos.result_to_json result);
          ])
      combos results
  in
  Bench_json.to_file out
    (Bench_json.Obj
       [
         ("schema", Bench_json.String "cvm-race-equiv/1");
         ("combos", Bench_json.List entries);
       ]);
  Printf.printf "wrote %s\n" out
