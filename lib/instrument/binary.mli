(** Synthetic executable images — what our ATOM analogue analyzes.

    An image has flat [sections] (shared libraries and the CVM runtime,
    classified by origin alone) and application-text [procs]:
    register-transfer CFGs whose computed addresses are classified by
    the data-flow analysis in {!Dataflow}. There is no oracle bit —
    whether a computed access is private is derived, not asserted.

    A flat section is a list of counted runs: one record stands for
    [count] alike instructions whose sites {!expand_sites} names, so
    building an image never materialises its library code. *)

type kind = Load | Store

type addressing =
  | Frame_pointer  (** sp/fp-relative: a stack slot *)
  | Global_pointer  (** gp-relative: statically allocated data *)
  | Computed  (** through a computed register: possibly shared *)

type origin = App_text | Library of string | Cvm_runtime

type run = {
  kind : kind;
  addressing : addressing;
  origin : origin;
  site : string;  (** symbolic program counter, e.g. "file:function#n" *)
  count : int;  (** alike instructions in the run *)
}

type t = { name : string; sections : run list; procs : Ir.proc list }

val make : name:string -> ?procs:Ir.proc list -> run list -> t
(** Validates every procedure's CFG. *)

val section : origin:origin -> prefix:string -> loads:int -> stores:int -> run list
(** A library or runtime section (addressing irrelevant to elimination):
    a [prefix ^ ".ld"] load run and a [prefix ^ ".st"] store run, each
    left out when its count is 0. *)

val expand_sites : string -> int -> string list
(** [expand_sites site count]: the sites of [count] alike instructions —
    [[site]] when [count = 1], otherwise [site#0] … [site#(count-1)]. *)
