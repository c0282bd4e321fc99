(* Synthetic executable images — the objects our ATOM analogue analyzes.

   ATOM classified every load and store in a real Alpha binary by its
   addressing mode and origin. We cannot rewrite native binaries from
   OCaml, so each application instead carries a synthetic image with the
   same structure the real classifier consumed: flat [sections] for code
   we never analyze beyond its origin (shared libraries, the CVM runtime
   itself), and application-text [procs] — register-transfer CFGs
   ({!Ir}) whose computed addresses the data-flow analysis in
   {!Dataflow} classifies. Whether a computed access is private is
   *derived* by that analysis; the image carries no oracle bit.

   A flat section is a list of counted runs: [count] alike instructions
   stand for themselves without being materialised, so a 129k-instruction
   library costs a handful of records to build. *)

type kind = Load | Store

type addressing =
  | Frame_pointer  (* sp/fp-relative: a stack slot *)
  | Global_pointer  (* gp-relative: statically allocated data *)
  | Computed  (* through a computed register: possibly shared *)

type origin =
  | App_text  (* the application's own code *)
  | Library of string  (* libc, libm, ... *)
  | Cvm_runtime  (* the DSM library linked into the binary *)

type run = {
  kind : kind;
  addressing : addressing;
  origin : origin;
  site : string;  (* symbolic "program counter": file:function#n *)
  count : int;  (* alike instructions, sites named by [expand_sites] *)
}

type t = { name : string; sections : run list; procs : Ir.proc list }

(* Builders used by the applications' [binary] descriptions. *)

let make ~name ?(procs = []) sections =
  List.iter Ir.validate procs;
  { name; sections; procs }

let section ~origin ~prefix ~loads ~stores =
  (* library/runtime sections: addressing is irrelevant to classification *)
  let run kind suffix count =
    { kind; addressing = Computed; origin; site = prefix ^ suffix; count }
  in
  List.filter (fun r -> r.count > 0) [ run Load ".ld" loads; run Store ".st" stores ]

let expand_sites site count =
  if count = 1 then [ site ] else List.init count (fun i -> Printf.sprintf "%s#%d" site i)
