(* LU — dense LU factorization without pivoting, a classic software-DSM
   workload of the era (TreadMarks, Splash2). Not part of the paper's
   evaluation; included as a fifth race-free workload for the detector.

   Columns are partitioned cyclically. At step k the owner of column k
   computes the multipliers below the diagonal, everyone crosses a
   barrier, and each processor folds the rank-1 update into its own
   columns. All cross-processor sharing is reads of the pivot column and
   row; every write goes to the writer's own columns. The detector must
   stay silent, and the result is compared element-for-element against a
   sequential factorization with the same operation order (bit-exact). *)

type params = { n : int }

let paper_params = { n = 96 }
let small_params = { n = 16 }

(* Deterministic, diagonally dominant input (no pivoting needed). *)
let input n i j =
  let base = sin (float_of_int ((i * 31) + j)) +. cos (float_of_int ((j * 17) - i)) in
  if i = j then base +. (2.0 *. float_of_int n) else base

let reference { n } =
  let a = Array.init n (fun i -> Array.init n (input n i)) in
  for k = 0 to n - 1 do
    for i = k + 1 to n - 1 do
      a.(i).(k) <- a.(i).(k) /. a.(k).(k)
    done;
    for j = k + 1 to n - 1 do
      for i = k + 1 to n - 1 do
        a.(i).(j) <- a.(i).(j) -. (a.(i).(k) *. a.(k).(j))
      done
    done
  done;
  a

let memory_bytes { n } = n * n * 8

let binary () =
  (* No Table 2 row exists for LU; SOR-like section magnitudes. The CFG
     mirrors the body: multiplier computation in the pivot column, a
     barrier, then the rank-1 update of the trailing columns with a
     private workspace for the multiplier row. *)
  let open Instrument.Ir in
  let matrix = 0 and work = 1 in
  let page = 4096 in
  let entry =
    block "entry"
      (App.fp_gp_ops ~name:"lu" ~stack:410 ~static_data:1380
      @ [ malloc_shared ~dst:matrix "lu.matrix"; malloc_private ~dst:work "lu.work" ])
      ~succs:[ "init" ]
  in
  let init =
    block "init"
      [ store (Reg matrix) ~stride:page ~count:30 ~site:"lu:init"; barrier ]
      ~succs:[ "factor" ]
  in
  let factor =
    block "factor"
      [
        load (Reg matrix) ~stride:8 ~count:40 ~site:"lu:pivot";
        store (Reg matrix) ~stride:8 ~count:20 ~site:"lu:mult";
        barrier;
      ]
      ~succs:[ "update" ]
  in
  let update =
    block "update"
      [
        load (Reg matrix) ~stride:page ~count:30 ~site:"lu:col";
        store (Reg matrix) ~stride:page ~count:50 ~site:"lu:update";
        load (Reg work) ~count:20 ~site:"lu:work";
        store (Reg work) ~count:20 ~site:"lu:work";
        barrier;
      ]
      ~succs:[ "factor"; "check" ]
  in
  let check = block "check" [ load (Reg matrix) ~stride:page ~count:20 ~site:"lu:check" ] in
  Instrument.Binary.make ~name:"lu"
    ~procs:[ proc ~name:"lu_main" ~entry:"entry" [ entry; init; factor; update; check ] ]
    (App.runtime_sections ~name:"lu" ~library_name:"libm" ~library:52000 ~cvm:3910)

let body ({ n } as params) node =
  let open Coherence.Dsm in
  let nprocs = nprocs node and pid = pid node in
  let a = malloc node (n * n * 8) ~name:"lu.matrix" in
  let index i j = (i * n) + j in
  let owner j = j mod nprocs in
  (* initialization: own columns *)
  for j = 0 to n - 1 do
    if owner j = pid then
      for i = 0 to n - 1 do
        write_float_at node a (index i j) (input n i j) ~site:"lu:init";
        touch_private node 1
      done
  done;
  barrier node;
  for k = 0 to n - 1 do
    (* the pivot column's owner computes the multipliers *)
    if owner k = pid then begin
      let pivot = read_float_at node a (index k k) ~site:"lu:pivot" in
      for i = k + 1 to n - 1 do
        let v = read_float_at node a (index i k) ~site:"lu:mult" in
        write_float_at node a (index i k) (v /. pivot) ~site:"lu:mult";
        touch_private node 1;
        compute node 12.0
      done
    end;
    barrier node;
    (* rank-1 update of own trailing columns *)
    for j = k + 1 to n - 1 do
      if owner j = pid then begin
        let akj = read_float_at node a (index k j) ~site:"lu:row" in
        for i = k + 1 to n - 1 do
          let lik = read_float_at node a (index i k) ~site:"lu:col" in
          let v = read_float_at node a (index i j) ~site:"lu:update" in
          write_float_at node a (index i j) (v -. (lik *. akj)) ~site:"lu:update";
          touch_private node 2;
          compute node 10.0
        done
      end
    done;
    barrier node
  done;
  (* self-check at processor 0: bit-exact against the reference *)
  if pid = 0 then begin
    let expected = reference params in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let got = read_float_at node a (index i j) in
        if got <> expected.(i).(j) then
          failwith (Printf.sprintf "lu: mismatch at (%d,%d): %g vs %g" i j got expected.(i).(j))
      done
    done
  end;
  barrier node

let make params =
  {
    App.name = "LU";
    input_description = Printf.sprintf "%dx%d" params.n params.n;
    synchronization = "barrier";
    memory_bytes = memory_bytes params;
    binary;
    body = body params;
  }
