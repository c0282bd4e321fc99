(* SOR — Jacobi relaxation over a 2-D grid, red/black style with two grids
   and a barrier per sweep. The paper's race-free, barrier-only workload:
   the only cross-processor sharing is reads of the neighbour rows at
   partition boundaries, which is pure false sharing at page granularity
   and must produce zero race reports.

   Each processor owns a contiguous band of rows. Every sweep it reads the
   four neighbours of each interior point from the current grid and writes
   the next grid, then everyone crosses a barrier and the grids swap. The
   final grid is checked point-for-point against a sequential reference
   (identical floating-point operations, so the comparison is exact). *)

type params = { rows : int; cols : int; iters : int }

let paper_params = { rows = 512; cols = 512; iters = 5 }
let small_params = { rows = 24; cols = 16; iters = 4 }
let large_params = { rows = 1024; cols = 1024; iters = 5 }

let boundary_value ~row ~col ~rows ~cols =
  (* fixed temperature on the top edge, cold elsewhere *)
  if row = 0 then 1.0 +. (float_of_int col /. float_of_int cols)
  else if row = rows - 1 || col = 0 || col = cols - 1 then 0.0
  else 0.0

let reference { rows; cols; iters } =
  let grid = Array.init 2 (fun _ -> Array.make_matrix rows cols 0.0) in
  for row = 0 to rows - 1 do
    for col = 0 to cols - 1 do
      let v = boundary_value ~row ~col ~rows ~cols in
      grid.(0).(row).(col) <- v;
      grid.(1).(row).(col) <- v
    done
  done;
  let cur = ref 0 in
  for _ = 1 to iters do
    let src = grid.(!cur) and dst = grid.(1 - !cur) in
    for row = 1 to rows - 2 do
      for col = 1 to cols - 2 do
        dst.(row).(col) <-
          0.25 *. (src.(row - 1).(col) +. src.(row + 1).(col)
                  +. src.(row).(col - 1) +. src.(row).(col + 1))
      done
    done;
    cur := 1 - !cur
  done;
  grid.(!cur)

let memory_bytes { rows; cols; _ } = 2 * rows * cols * 8

let binary () =
  (* Synthetic image with the paper's SOR section counts (Table 2). The
     application text is a CFG mirroring the body below: two dsm_malloc
     grids, a private scratch row, an init phase, the sweep loop (reads
     of the four neighbours from the current grid, write to the next)
     and the final self-check — the data-flow pass derives which
     accesses survive instrumentation. Neighbour rows are a page apart
     (512-double rows); west/east share the row page, so their checks
     batch onto the row's first check. *)
  let open Instrument.Ir in
  let grid0 = 0 and grid1 = 1 and scratch = 2 and row = 3 in
  let page = 4096 in
  let entry =
    block "entry"
      (App.fp_gp_ops ~name:"sor" ~stack:342 ~static_data:1304
      @ [
          malloc_shared ~dst:grid0 "sor.grid0";
          malloc_shared ~dst:grid1 "sor.grid1";
          malloc_private ~dst:scratch "sor.scratch";
        ])
      ~succs:[ "init" ]
  in
  let init =
    block "init"
      [
        store (Reg grid0) ~stride:page ~count:10 ~site:"sor:init";
        store (Reg grid1) ~stride:page ~count:10 ~site:"sor:init";
        store (Reg scratch) ~count:4 ~site:"sor:init_scratch";
        barrier;
      ]
      ~succs:[ "sweep" ]
  in
  let sweep =
    block "sweep"
      [
        lea ~dst:row (Reg grid0) ~offset:page;
        load (Reg grid0) ~offset:0 ~stride:page ~count:20 ~site:"sor:north";
        load (Reg grid0) ~offset:(2 * page) ~stride:page ~count:20 ~site:"sor:south";
        load (Reg row) ~offset:0 ~stride:page ~count:20 ~site:"sor:west";
        load (Reg row) ~offset:16 ~stride:page ~count:20 ~site:"sor:east";
        load (Reg scratch) ~count:10 ~site:"sor:scratch";
        store (Reg scratch) ~count:10 ~site:"sor:scratch";
        store (Reg grid1) ~offset:page ~stride:page ~count:16 ~site:"sor:update";
        barrier;
      ]
      ~succs:[ "sweep"; "check" ]
  in
  let check =
    block "check" [ load (Reg grid0) ~stride:page ~count:10 ~site:"sor:check"; barrier ]
  in
  Instrument.Binary.make ~name:"sor"
    ~procs:[ proc ~name:"sor_main" ~entry:"entry" [ entry; init; sweep; check ] ]
    (App.runtime_sections ~name:"sor" ~library_name:"libc" ~library:48717 ~cvm:3910)

let band ~rows ~nprocs ~pid =
  (* contiguous rows [lo, hi) owned by processor [pid] *)
  let per = (rows + nprocs - 1) / nprocs in
  let lo = min rows (pid * per) and hi = min rows ((pid + 1) * per) in
  (lo, hi)

let body ({ rows; cols; iters } as params) node =
  let open Coherence.Dsm in
  let nprocs = nprocs node and pid = pid node in
  let grid0 = malloc node (rows * cols * 8) ~name:"sor.grid0" in
  let grid1 = malloc node (rows * cols * 8) ~name:"sor.grid1" in
  let grids = [| grid0; grid1 |] in
  let index row col = (row * cols) + col in
  let lo, hi = band ~rows ~nprocs ~pid in
  (* initialization: first touch by the owning processor *)
  for row = lo to hi - 1 do
    for col = 0 to cols - 1 do
      let v = boundary_value ~row ~col ~rows ~cols in
      write_float_at node grids.(0) (index row col) v;
      write_float_at node grids.(1) (index row col) v;
      touch_private node 2
    done
  done;
  barrier node;
  let cur = ref 0 in
  for _ = 1 to iters do
    let src = grids.(!cur) and dst = grids.(1 - !cur) in
    for row = max 1 lo to min (rows - 2) (hi - 1) do
      for col = 1 to cols - 2 do
        let north = read_float_at node src (index (row - 1) col) ~site:"sor:north" in
        let south = read_float_at node src (index (row + 1) col) ~site:"sor:south" in
        let west = read_float_at node src (index row (col - 1)) ~site:"sor:west" in
        let east = read_float_at node src (index row (col + 1)) ~site:"sor:east" in
        write_float_at node dst (index row col) (0.25 *. (north +. south +. west +. east))
          ~site:"sor:update";
        touch_private node 1;
        compute node 52.0
      done
    done;
    barrier node;
    cur := 1 - !cur
  done;
  (* self-check at processor 0: exact match with the sequential reference *)
  if pid = 0 then begin
    let expected = reference params in
    for row = 0 to rows - 1 do
      for col = 0 to cols - 1 do
        let got = read_float_at node grids.(!cur) (index row col) in
        if got <> expected.(row).(col) then
          failwith
            (Printf.sprintf "sor: mismatch at (%d,%d): got %g want %g" row col got
               expected.(row).(col))
      done
    done
  end;
  barrier node

let make params =
  {
    App.name = "SOR";
    input_description = Printf.sprintf "%dx%d" params.rows params.cols;
    synchronization = "barrier";
    memory_bytes = memory_bytes params;
    binary;
    body = body params;
  }
