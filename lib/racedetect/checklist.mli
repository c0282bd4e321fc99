(** Check-list entries: concurrent interval pairs with overlapping page
    accesses, shipped on barrier release messages so processes can return
    the word-level bitmaps the master needs. *)

type entry = { a : Proto.Interval.id; b : Proto.Interval.id; pages : int list }

val bitmap_requests : entry list -> (Proto.Interval.id * int) list
(** Distinct (interval, page) bitmaps the master must retrieve. *)

val requests_by_proc : entry list -> nprocs:int -> (Proto.Interval.id * int) list array
(** [bitmap_requests] split by the interval's processor: slot [p] holds
    exactly the requests for [p]'s intervals, in [bitmap_requests] order,
    and [[]] when [p] has none. Sorts once. Every interval's processor
    must be below [nprocs]. *)

val compare_request : Proto.Interval.id * int -> Proto.Interval.id * int -> int
(** Orders requests by (proc, index, page) — the order polymorphic
    [compare] gives them. *)

val size_bytes : entry list -> int
(** Wire size of the check list on the barrier release message. *)

val pp : Format.formatter -> entry -> unit
