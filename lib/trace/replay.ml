(* Replay verification: run the same configuration again and check the
   live event stream against the recorded one, event by event. The
   verifier is itself a {!Sink.t}, so the cluster needs no special replay
   mode — it just emits into a sink that compares instead of appending.

   The first mismatch is latched: index into the recorded stream,
   expected and actual events, and the last recorded activity of every
   processor at that point (a cheap "where was everyone" summary). *)

type divergence = {
  d_index : int;  (* 0-based position in the recorded stream *)
  d_time : int;  (* simulated time of the live event (or expected, at stream end) *)
  d_expected : (int * Event.t) option;  (* None: live run produced extra events *)
  d_actual : (int * Event.t) option;  (* None: live run ended short *)
  d_proc_state : (int * string) list;  (* last recorded activity per processor *)
}

type verifier = {
  log : (int * Event.t) array;
  nprocs : int;
  last_by_proc : string option array;
  mutable next : int;  (* index of the next expected event *)
  mutable divergence : divergence option;
}

let proc_of (e : Event.t) =
  match e with
  | Event.Proc_block { proc; _ }
  | Event.Proc_resume { proc }
  | Event.Proc_finish { proc }
  | Event.Page_fault { proc; _ }
  | Event.Diff_fetch { proc; _ }
  | Event.Diff_apply { proc; _ }
  | Event.Lock_acquire { proc; _ }
  | Event.Lock_release { proc; _ }
  | Event.Barrier_enter { proc; _ }
  | Event.Barrier_leave { proc; _ }
  | Event.Interval_open { proc; _ }
  | Event.Interval_close { proc; _ }
  | Event.Bus { proc; _ } ->
      Some proc
  | Event.Msg_send { src; _ } -> Some src
  | Event.Msg_deliver { dst; _ } -> Some dst
  | _ -> None

let create (decoded : Codec.decoded) =
  {
    log = decoded.Codec.events;
    nprocs = decoded.Codec.meta.Codec.m_nprocs;
    last_by_proc = Array.make (max 1 decoded.Codec.meta.Codec.m_nprocs) None;
    next = 0;
    divergence = None;
  }

let proc_state t =
  let acc = ref [] in
  for p = Array.length t.last_by_proc - 1 downto 0 do
    match t.last_by_proc.(p) with
    | Some s -> acc := (p, s) :: !acc
    | None -> ()
  done;
  !acc

let note_proc t ~time event =
  match proc_of event with
  | Some p when p >= 0 && p < Array.length t.last_by_proc ->
      t.last_by_proc.(p) <-
        Some (Printf.sprintf "%s @ %d ns" (Event.to_string event) time)
  | _ -> ()

let diverge t ~time ~expected ~actual =
  if t.divergence = None then
    t.divergence <-
      Some
        {
          d_index = t.next;
          d_time = time;
          d_expected = expected;
          d_actual = actual;
          d_proc_state = proc_state t;
        }

let check t ~time event =
  if t.divergence = None then begin
    if t.next >= Array.length t.log then
      diverge t ~time ~expected:None ~actual:(Some (time, event))
    else begin
      let (exp_time, exp_event) as expected = t.log.(t.next) in
      if exp_time = time && Event.equal exp_event event then begin
        note_proc t ~time event;
        t.next <- t.next + 1
      end
      else diverge t ~time ~expected:(Some expected) ~actual:(Some (time, event))
    end
  end

let sink t = { Sink.emit = (fun ~time event -> check t ~time event) }

let divergence t = t.divergence

(* Declare the stream over: any recorded events not yet matched are a
   divergence of their own (the live run ended short). *)
let finish t =
  (match t.divergence with
  | Some _ -> ()
  | None ->
      if t.next < Array.length t.log then
        let exp_time, _ = t.log.(t.next) in
        diverge t ~time:exp_time ~expected:(Some t.log.(t.next)) ~actual:None);
  t.divergence

let matched t = t.next

let pp_stream_item ppf = function
  | Some (time, event) -> Format.fprintf ppf "%a @@ %d ns" Event.pp event time
  | None -> Format.pp_print_string ppf "(end of stream)"

let pp_divergence ppf d =
  Format.fprintf ppf "@[<v>first divergence at event %d (sim time %d ns):" d.d_index
    d.d_time;
  Format.fprintf ppf "@,  expected: %a" pp_stream_item d.d_expected;
  Format.fprintf ppf "@,  actual:   %a" pp_stream_item d.d_actual;
  (match d.d_proc_state with
  | [] -> ()
  | procs ->
      Format.fprintf ppf "@,  last recorded activity per processor:";
      List.iter
        (fun (p, s) -> Format.fprintf ppf "@,    p%d: %s" p s)
        procs);
  Format.fprintf ppf "@]"

(* --- log-only reconstruction --- *)

let races_of_log (decoded : Codec.decoded) =
  Array.fold_left
    (fun acc (_, e) -> match e with Event.Race r -> r :: acc | _ -> acc)
    [] decoded.Codec.events
  |> List.rev |> Proto.Race.dedup

let run_end_of_log (decoded : Codec.decoded) =
  Array.fold_left
    (fun acc (_, e) -> match e with Event.Run_end _ -> Some e | _ -> acc)
    None decoded.Codec.events

let checksum_of_log decoded =
  match run_end_of_log decoded with
  | Some (Event.Run_end { checksum; _ }) -> Some checksum
  | _ -> None

let sim_time_of_log decoded =
  match run_end_of_log decoded with
  | Some (Event.Run_end { sim_time_ns; _ }) -> Some sim_time_ns
  | _ -> None

type tag_stats = { ts_tag : string; ts_count : int; ts_bytes : int }

let per_tag_stats (decoded : Codec.decoded) =
  let tbl = Hashtbl.create 24 in
  Array.iter
    (fun (_, e) ->
      let tag = Event.tag e in
      let count, bytes =
        match Hashtbl.find_opt tbl tag with Some cb -> cb | None -> (0, 0)
      in
      Hashtbl.replace tbl tag (count + 1, bytes + Codec.event_bytes e))
    decoded.Codec.events;
  Hashtbl.fold (fun ts_tag (ts_count, ts_bytes) acc ->
      { ts_tag; ts_count; ts_bytes } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare b.ts_bytes a.ts_bytes with
         | 0 -> compare a.ts_tag b.ts_tag
         | n -> n)
