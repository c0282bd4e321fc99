(* The elided-site set of a detecting run (the MHP analysis' statically
   race-free sites), asked once per shared access by every backend.

   Sites are almost always string literals, so the same few physical
   strings come back millions of times. A small array of already-resolved
   strings, compared with [==], answers those without hashing; a miss,
   or any site once the array is full, goes to the table. An equal but
   physically different string misses the array and gets the table's
   answer, so the array only ever short-cuts, never decides. [scan] is a
   top-level function and keeps everything in arguments: a lookup
   allocates nothing. *)

let slots = 16

type t = {
  table : (string, unit) Hashtbl.t;
  keys : string array;  (* resolved sites, [used] of them *)
  verdicts : bool array;  (* [Hashtbl.mem table keys.(i)] *)
  mutable used : int;
}

let create sites =
  let table = Hashtbl.create 64 in
  Option.iter (List.iter (fun site -> Hashtbl.replace table site ())) sites;
  { table; keys = Array.make slots ""; verdicts = Array.make slots false; used = 0 }

let resolve t site =
  let verdict = Hashtbl.mem t.table site in
  if t.used < slots then begin
    t.keys.(t.used) <- site;
    t.verdicts.(t.used) <- verdict;
    t.used <- t.used + 1
  end;
  verdict

let rec scan t site i =
  if i = t.used then resolve t site
  else if Array.unsafe_get t.keys i == site then Array.unsafe_get t.verdicts i
  else scan t site (i + 1)

let mem t site = Hashtbl.length t.table > 0 && scan t site 0
