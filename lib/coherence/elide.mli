(** The set of sites whose runtime check is elided, shared by every
    coherence backend. Lookups allocate nothing: the first {!slots}
    distinct site strings are remembered by physical identity in front
    of the hash table. *)

type t

val slots : int
(** How many resolved site strings the identity cache holds. *)

val create : string list option -> t
(** The configured [elide_sites]; [None] (elision off) makes an empty
    set. *)

val mem : t -> string -> bool
(** Whether the site's check is elided: exactly [List.mem site sites]
    under string equality, whatever the site's physical identity. *)
