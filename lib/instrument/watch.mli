(** Runtime watch list for the two-run reference identification of paper
    section 6.1.

    The first run reports only racy addresses and epochs (keeping a
    program counter per access would be prohibitive). A second run —
    replayed under the recorded synchronization order — watches exactly
    those addresses and records the site of every instrumented access to
    them, mapping each race back to source locations. *)

type hit = { site : string; addr : int; kind : Proto.Race.access_kind; count : int }

type t

val create : addrs:int list -> t
val watched : t -> int -> bool

val observe : t -> site:string -> addr:int -> Proto.Race.access_kind -> unit
(** Record an instrumented access; partially applied it is shaped for
    a backend's [set_access_observer]. *)

val hits : t -> hit list
(** All recorded hits, sorted by (addr, site, kind). *)

val sites_for : t -> addr:int -> (string * Proto.Race.access_kind) list

val pp_hit : Format.formatter -> hit -> unit
