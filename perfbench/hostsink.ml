(* Host-stamped span recorder for the benchmark's traced pass.

   Spans are kept in memory and written out once, when the benchmark
   ends. Each span names its cause (the enclosing span) and carries the
   GC counters of the interval it covers, bracketed by [Gc.quick_stat].
   A per-run [Trace.Sink.t] (installed through [Lrc.Config.tracer])
   stamps simulation events with host time: it counts them by tag and
   turns each barrier epoch's last [Barrier_enter] .. first
   [Barrier_leave] into a ["lrc.barrier_window"] span. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

type span = {
  id : int;
  parent : int;  (** 0: no enclosing span *)
  name : string;
  t0 : float;
  t1 : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  counts : (string * int) list;
}

type t = { mutable spans : span list; mutable next_id : int; mutable stack : int list }

let create () = { spans = []; next_id = 1; stack = [] }
let current t = match t.stack with id :: _ -> id | [] -> 0

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let span t ?(counts = fun _ -> []) name f =
  let id = fresh t and parent = current t in
  t.stack <- id :: t.stack;
  let g0 = Gc.quick_stat () in
  let t0 = now_s () in
  let finish c =
    let t1 = now_s () in
    let g1 = Gc.quick_stat () in
    t.stack <- List.tl t.stack;
    t.spans <-
      {
        id;
        parent;
        name;
        t0;
        t1;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        counts = c;
      }
      :: t.spans
  in
  match f () with
  | r ->
      finish (counts r);
      r
  | exception e ->
      finish [ ("raised", 1) ];
      raise e

(* ------------------------------------------------------------------ *)
(* Simulation-event sink                                                *)

type run = {
  owner : t;
  parent_id : int;
  tags : (string, int) Hashtbl.t;
  last_enter : (int, float) Hashtbl.t;
  closed : (int, unit) Hashtbl.t;
  mutable events : int;
  mutable check_entries : int;
  mutable window_s : float;
}

let on_event r ev =
  r.events <- r.events + 1;
  let tag = Trace.Event.tag ev in
  Hashtbl.replace r.tags tag (1 + Option.value ~default:0 (Hashtbl.find_opt r.tags tag));
  match ev with
  | Trace.Event.Barrier_enter { epoch; _ } -> Hashtbl.replace r.last_enter epoch (now_s ())
  | Trace.Event.Barrier_leave { epoch; _ } when not (Hashtbl.mem r.closed epoch) -> (
      Hashtbl.replace r.closed epoch ();
      match Hashtbl.find_opt r.last_enter epoch with
      | Some t0 ->
          let t1 = now_s () in
          r.window_s <- r.window_s +. (t1 -. t0);
          r.owner.spans <-
            {
              id = fresh r.owner;
              parent = r.parent_id;
              name = "lrc.barrier_window";
              t0;
              t1;
              minor_words = 0.0;
              promoted_words = 0.0;
              major_collections = 0;
              counts = [ ("epoch", epoch) ];
            }
            :: r.owner.spans
      | None -> ())
  | Trace.Event.Check_entry _ -> r.check_entries <- r.check_entries + 1
  | _ -> ()

(* A fresh sink whose barrier spans hang off the currently open span. *)
let run_sink t =
  let r =
    {
      owner = t;
      parent_id = current t;
      tags = Hashtbl.create 32;
      last_enter = Hashtbl.create 64;
      closed = Hashtbl.create 64;
      events = 0;
      check_entries = 0;
      window_s = 0.0;
    }
  in
  (r, { Trace.Sink.emit = (fun ~time:_ ev -> on_event r ev) })

let tag_counts r =
  List.sort compare (Hashtbl.fold (fun tag n acc -> (tag, n) :: acc) r.tags [])

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line, in start order; times relative to the
   first span's start. *)
let write t path =
  let oc = open_out path in
  let spans = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) t.spans in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  List.iter
    (fun s ->
      let counts =
        String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s:%d" (json_string k) v) s.counts)
      in
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%s,\"start_s\":%.9f,\"end_s\":%.9f,\"minor_words\":%.0f,\"promoted_words\":%.0f,\"major_collections\":%d,\"counts\":{%s}}\n"
        s.id s.parent (json_string s.name) (s.t0 -. origin) (s.t1 -. origin) s.minor_words
        s.promoted_words s.major_collections counts)
    spans;
  close_out oc
