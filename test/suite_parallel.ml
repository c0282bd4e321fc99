(* The Domains work pool.

   The pool's whole contract is: results come back in submission order,
   a raising task becomes an [Error] without taking the pool (or any
   other task) down, and running an experiment at [jobs > 1] yields
   exactly the rows the sequential run yields. Each property is tested
   directly, the last one against real [Core.Experiments] sweeps. *)

let check = Alcotest.check

exception Boom of int

(* Burn a task-dependent amount of CPU so parallel completions genuinely
   finish out of submission order before harvesting. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to 1 + (n mod 97) * 500 do
    acc := !acc + i
  done;
  !acc

let prop_order jobs =
  QCheck.Test.make
    ~name:(Printf.sprintf "map at jobs=%d preserves submission order" jobs)
    ~count:30
    QCheck.(list_of_size Gen.(0 -- 40) small_nat)
    (fun xs ->
      let f x =
        ignore (spin x);
        (x * 2) + 1
      in
      let expected = List.map f xs in
      let actual =
        Parallel.Pool.with_pool ~jobs (fun pool -> Parallel.Pool.map_exn pool f xs)
      in
      actual = expected)

let test_failure_isolation () =
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let tasks =
        [
          (fun () -> 10);
          (fun () -> raise (Boom 42));
          (fun () -> 30);
        ]
      in
      (match Parallel.Pool.run pool tasks with
      | [ Ok 10; Error f; Ok 30 ] ->
          check Alcotest.bool "the task's own exception is preserved" true
            (f.Parallel.Pool.f_exn = Boom 42)
      | _ -> Alcotest.fail "expected [Ok 10; Error _; Ok 30] in submission order");
      (* the failure poisoned nothing: the same pool keeps working *)
      check (Alcotest.list Alcotest.int) "pool usable after a failed task" [ 1; 2; 3 ]
        (Parallel.Pool.map_exn pool (fun x -> x) [ 1; 2; 3 ]))

let test_map_exn_reraises () =
  Alcotest.check_raises "map_exn re-raises the first failure" (Boom 7) (fun () ->
      Parallel.Pool.with_pool ~jobs:2 (fun pool ->
          ignore
            (Parallel.Pool.map_exn pool
               (fun x -> if x = 1 then raise (Boom 7) else x)
               [ 0; 1; 2 ])))

let test_submit_after_shutdown () =
  let pool = Parallel.Pool.create ~jobs:2 () in
  Parallel.Pool.shutdown pool;
  (try
     ignore (Parallel.Pool.map_exn pool (fun x -> x) [ 1 ]);
     Alcotest.fail "submit after shutdown should raise"
   with Invalid_argument _ -> ());
  (* shutdown is idempotent *)
  Parallel.Pool.shutdown pool

(* Sequential fidelity: the jobs=1 pool spawns nothing and runs each
   task on the calling domain, in submission order. *)
let test_inline_pool () =
  let caller = Domain.self () in
  let order = ref [] in
  let doms =
    Parallel.Pool.with_pool ~jobs:1 (fun pool ->
        Parallel.Pool.map_exn pool
          (fun x ->
            order := x :: !order;
            Domain.self ())
          [ 1; 2; 3 ])
  in
  check Alcotest.bool "every task ran on the calling domain" true
    (List.for_all (fun d -> d = caller) doms);
  check (Alcotest.list Alcotest.int) "tasks ran in submission order" [ 1; 2; 3 ]
    (List.rev !order)

let test_create_rejects_zero_jobs () =
  List.iter
    (fun jobs ->
      match Parallel.Pool.create ~jobs () with
      | _ -> Alcotest.failf "create ~jobs:%d should raise" jobs
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

(* The claim the whole bench/experiment wiring rests on: a sweep's rows
   are identical whatever the job count. *)

let test_experiments_jobs_equal () =
  let seq = Core.Experiments.fault_sweep_all ~scale:Apps.Registry.Small ~nprocs:4
      ~drops:[ 0.0; 0.2 ] ~jobs:1 ()
  and par = Core.Experiments.fault_sweep_all ~scale:Apps.Registry.Small ~nprocs:4
      ~drops:[ 0.0; 0.2 ] ~jobs:4 ()
  in
  check Alcotest.bool "fault sweep rows identical at jobs=1 and jobs=4" true (seq = par)

let test_figure5_jobs_equal () =
  let seq = Core.Experiments.figure5_both ~jobs:1 ()
  and par = Core.Experiments.figure5_both ~jobs:2 () in
  check Alcotest.bool "figure 5 rows identical at jobs=1 and jobs=2" true (seq = par)

let suite =
  [
    ( "parallel-pool",
      List.map QCheck_alcotest.to_alcotest [ prop_order 1; prop_order 2; prop_order 8 ]
      @ [
          Alcotest.test_case "raising task is isolated" `Quick test_failure_isolation;
          Alcotest.test_case "map_exn re-raises" `Quick test_map_exn_reraises;
          Alcotest.test_case "submit after shutdown" `Quick test_submit_after_shutdown;
          Alcotest.test_case "jobs=1 runs inline on the caller" `Quick test_inline_pool;
          Alcotest.test_case "create rejects jobs < 1" `Quick test_create_rejects_zero_jobs;
          Alcotest.test_case "fault sweep equal across jobs" `Quick
            test_experiments_jobs_equal;
          Alcotest.test_case "figure 5 equal across jobs" `Quick test_figure5_jobs_equal;
        ] );
  ]
