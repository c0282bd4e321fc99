(* FFT — a 3-D complex Fast Fourier Transform over shared memory, the
   paper's second barrier-only workload.

   The n1 x n2 x n3 complex grid lives in the shared segment (interleaved
   re/im words). Planes along dimension 1 are block-partitioned over the
   processors. As in the Splash2 kernel, the transform avoids concurrent
   writers entirely (important under a single-writer protocol):

     phase 1: each processor FFTs dimensions 3 and 2 inside its own planes;
     phase 2: blocked transpose (i1 <-> i2) into a second shared array —
              every processor READS other processors' planes but WRITES
              only its own target planes;
     phase 3: FFT along the old dimension 1, now plane-local;
     phase 4: transpose back.

   The inverse transform repeats the four phases with conjugate twiddles,
   and the body checks the round trip against the deterministic input, so
   coherence bugs surface as a failed self-check. Cross-processor sharing
   is the transpose reads — page-granularity false sharing with zero
   races, which is what FFT contributes to Table 3. *)

type params = { n1 : int; n2 : int; n3 : int }

let paper_params = { n1 = 64; n2 = 64; n3 = 16 }
let small_params = { n1 = 8; n2 = 4; n3 = 4 }
let large_params = { n1 = 128; n2 = 64; n3 = 32 }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let total { n1; n2; n3 } = n1 * n2 * n3

let memory_bytes params = 2 * 2 * total params * 8 (* data + transpose buffer *)

let binary () =
  (* Synthetic image with the paper's FFT section counts (Table 2). The
     CFG mirrors the ping-pong structure of the body: each phase reads
     one shared grid and writes the other (never both), with the
     butterflies running in a private workspace — those computed
     accesses are what the data-flow pass proves private. Re/im words
     interleave, so every im access batches onto its re check. *)
  let open Instrument.Ir in
  let data = 0 and trans = 1 and work = 2 and twiddle = 3 in
  let page = 4096 in
  let entry =
    block "entry"
      (App.fp_gp_ops ~name:"fft" ~stack:1285 ~static_data:1496
      @ [
          malloc_shared ~dst:data "fft.data";
          malloc_shared ~dst:trans "fft.trans";
          malloc_private ~dst:work "fft.work";
          lea ~dst:twiddle (Reg work) ~offset:512;
        ])
      ~succs:[ "init" ]
  in
  let init =
    block "init"
      [
        store (Reg data) ~offset:0 ~stride:page ~count:12 ~site:"fft:init_re";
        store (Reg data) ~offset:8 ~stride:page ~count:12 ~site:"fft:init_im";
        barrier;
      ]
      ~succs:[ "phase1" ]
  in
  let phase1 =
    block "phase1"
      [
        load (Reg data) ~offset:0 ~stride:page ~count:32 ~site:"fft:load_plane_re";
        load (Reg data) ~offset:8 ~stride:page ~count:32 ~site:"fft:load_plane_im";
        store (Reg work) ~count:20 ~site:"fft:butterfly";
        load (Reg work) ~count:20 ~site:"fft:butterfly";
        load (Reg twiddle) ~count:10 ~site:"fft:twiddle";
        store (Reg trans) ~offset:0 ~stride:page ~count:23 ~site:"fft:store_trans_re";
        store (Reg trans) ~offset:8 ~stride:page ~count:22 ~site:"fft:store_trans_im";
        barrier;
      ]
      ~succs:[ "phase2" ]
  in
  let phase2 =
    block "phase2"
      [
        load (Reg trans) ~offset:0 ~stride:page ~count:32 ~site:"fft:load_trans_re";
        load (Reg trans) ~offset:8 ~stride:page ~count:32 ~site:"fft:load_trans_im";
        store (Reg work) ~count:10 ~site:"fft:butterfly2";
        load (Reg work) ~count:10 ~site:"fft:butterfly2";
        store (Reg data) ~offset:0 ~stride:page ~count:25 ~site:"fft:store_back_re";
        store (Reg data) ~offset:8 ~stride:page ~count:25 ~site:"fft:store_back_im";
        barrier;
      ]
      ~succs:[ "phase1"; "check" ]
  in
  let check =
    block "check"
      [
        load (Reg data) ~offset:0 ~stride:page ~count:7 ~site:"fft:check_re";
        load (Reg data) ~offset:8 ~stride:page ~count:7 ~site:"fft:check_im";
        barrier;
      ]
  in
  Instrument.Binary.make ~name:"fft"
    ~procs:[ proc ~name:"fft_main" ~entry:"entry" [ entry; init; phase1; phase2; check ] ]
    (App.runtime_sections ~name:"fft" ~library_name:"libm" ~library:124716 ~cvm:3910)

(* Deterministic pseudo-random input: a pure function of the flat index,
   so any processor can validate any element without communication. *)
let input_re index = sin (0.7 *. float_of_int index) +. 0.25
let input_im index = cos (1.3 *. float_of_int index) -. 0.5

(* In-place iterative radix-2 Cooley-Tukey over private arrays. *)
let fft_in_place ~inverse re im =
  let n = Array.length re in
  assert (is_power_of_two n && Array.length im = n);
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = re.(i) in
      re.(i) <- re.(!j);
      re.(!j) <- tr;
      let ti = im.(i) in
      im.(i) <- im.(!j);
      im.(!j) <- ti
    end;
    let rec carry m =
      if m > 0 && m land !j <> 0 then begin
        j := !j lxor m;
        carry (m lsr 1)
      end
      else j := !j lor m
    in
    carry (n lsr 1)
  done;
  let sign = if inverse then 1.0 else -1.0 in
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let theta = sign *. 2.0 *. Float.pi /. float_of_int !len in
    for start = 0 to (n / !len) - 1 do
      let base = start * !len in
      for k = 0 to half - 1 do
        let angle = theta *. float_of_int k in
        let wr = cos angle and wi = sin angle in
        let a = base + k and b = base + k + half in
        let tr = (wr *. re.(b)) -. (wi *. im.(b)) in
        let ti = (wr *. im.(b)) +. (wi *. re.(b)) in
        re.(b) <- re.(a) -. tr;
        im.(b) <- im.(a) -. ti;
        re.(a) <- re.(a) +. tr;
        im.(a) <- im.(a) +. ti
      done
    done;
    len := !len * 2
  done;
  if inverse then begin
    let scale = 1.0 /. float_of_int n in
    for i = 0 to n - 1 do
      re.(i) <- re.(i) *. scale;
      im.(i) <- im.(i) *. scale
    done
  end

let log2i n = int_of_float (Float.round (Float.log2 (float_of_int n)))

let body ({ n1; n2; n3 } as params) node =
  let open Coherence.Dsm in
  let nprocs = nprocs node and pid = pid node in
  let n = total params in
  let data = malloc node (2 * n * 8) ~name:"fft.data" in
  let trans = malloc node (2 * n * 8) ~name:"fft.transpose" in
  (* flat complex index in (a, b, n3) layout: ((a * dim_b) + b) * n3 + c *)
  let re_index i = 2 * i and im_index i = (2 * i) + 1 in
  let planes_of dim_a = ((dim_a + nprocs - 1) / nprocs * pid, min dim_a ((dim_a + nprocs - 1) / nprocs * (pid + 1))) in
  let my_n1_lo, my_n1_hi = planes_of n1 in
  let my_n2_lo, my_n2_hi = planes_of n2 in
  (* gather a pencil of [len] complex values at [stride] from [array],
     FFT it privately, scatter it back; models the butterfly network plus
     the loop bookkeeping under the cost model *)
  let fft_pencil ~inverse array base stride len =
    let re = Array.make len 0.0 and im = Array.make len 0.0 in
    for k = 0 to len - 1 do
      let i = base + (k * stride) in
      re.(k) <- read_float_at node array (re_index i) ~site:"fft:gather";
      im.(k) <- read_float_at node array (im_index i) ~site:"fft:gather"
    done;
    fft_in_place ~inverse re im;
    compute node (22.0 *. float_of_int (len * log2i len));
    touch_private node (6 * len);
    for k = 0 to len - 1 do
      let i = base + (k * stride) in
      write_float_at node array (re_index i) re.(k) ~site:"fft:scatter";
      write_float_at node array (im_index i) im.(k) ~site:"fft:scatter"
    done
  in
  (* initialization: own planes *)
  for i1 = my_n1_lo to my_n1_hi - 1 do
    for rest = 0 to (n2 * n3) - 1 do
      let i = (i1 * n2 * n3) + rest in
      write_float_at node data (re_index i) (input_re i) ~site:"fft:init";
      write_float_at node data (im_index i) (input_im i) ~site:"fft:init";
      touch_private node 2
    done
  done;
  barrier node;
  let half_transform ~inverse =
    (* dims 3 then 2, inside own i1 planes *)
    for i1 = my_n1_lo to my_n1_hi - 1 do
      for i2 = 0 to n2 - 1 do
        fft_pencil ~inverse data (((i1 * n2) + i2) * n3) 1 n3
      done;
      for i3 = 0 to n3 - 1 do
        fft_pencil ~inverse data ((i1 * n2 * n3) + i3) n3 n2
      done
    done;
    barrier node;
    (* transpose i1 <-> i2: write own target planes, read everyone's *)
    for i2 = my_n2_lo to my_n2_hi - 1 do
      for i1 = 0 to n1 - 1 do
        for i3 = 0 to n3 - 1 do
          let src = ((i1 * n2) + i2) * n3 in
          let dst = ((i2 * n1) + i1) * n3 in
          let re = read_float_at node data (re_index (src + i3)) ~site:"fft:transpose" in
          let im = read_float_at node data (im_index (src + i3)) ~site:"fft:transpose" in
          write_float_at node trans (re_index (dst + i3)) re ~site:"fft:transpose";
          write_float_at node trans (im_index (dst + i3)) im ~site:"fft:transpose";
          touch_private node 4
        done
      done
    done;
    barrier node;
    (* dim 1, now plane-local in the transposed array *)
    for i2 = my_n2_lo to my_n2_hi - 1 do
      for i3 = 0 to n3 - 1 do
        fft_pencil ~inverse trans ((i2 * n1 * n3) + i3) n3 n1
      done
    done;
    barrier node;
    (* transpose back: write own i1 planes *)
    for i1 = my_n1_lo to my_n1_hi - 1 do
      for i2 = 0 to n2 - 1 do
        for i3 = 0 to n3 - 1 do
          let src = ((i2 * n1) + i1) * n3 in
          let dst = ((i1 * n2) + i2) * n3 in
          let re = read_float_at node trans (re_index (src + i3)) ~site:"fft:transpose" in
          let im = read_float_at node trans (im_index (src + i3)) ~site:"fft:transpose" in
          write_float_at node data (re_index (dst + i3)) re ~site:"fft:transpose";
          write_float_at node data (im_index (dst + i3)) im ~site:"fft:transpose";
          touch_private node 4
        done
      done
    done;
    barrier node
  in
  half_transform ~inverse:false;
  half_transform ~inverse:true;
  (* round-trip self-check over this processor's own planes *)
  let tolerance = 1e-9 in
  for i1 = my_n1_lo to my_n1_hi - 1 do
    for rest = 0 to (n2 * n3) - 1 do
      let i = (i1 * n2 * n3) + rest in
      let got_re = read_float_at node data (re_index i) in
      let got_im = read_float_at node data (im_index i) in
      if
        Float.abs (got_re -. input_re i) > tolerance
        || Float.abs (got_im -. input_im i) > tolerance
      then
        failwith
          (Printf.sprintf "fft: round-trip mismatch at %d: (%g,%g) vs (%g,%g)" i got_re got_im
             (input_re i) (input_im i))
    done
  done;
  barrier node

let make params =
  if not (is_power_of_two params.n1 && is_power_of_two params.n2 && is_power_of_two params.n3)
  then invalid_arg "Fft.make: dimensions must be powers of two";
  {
    App.name = "FFT";
    input_description = Printf.sprintf "%d x %d x %d" params.n1 params.n2 params.n3;
    synchronization = "barrier";
    memory_bytes = memory_bytes params;
    binary;
    body = body params;
  }
