(* Discrete-event simulation engine.

   Each simulated processor is a coroutine implemented with OCaml 5 effect
   handlers. A process runs real OCaml code and interacts with virtual time
   through two effects: [Advance n] consumes [n] simulated nanoseconds, and
   [Block] suspends the process until another party calls [wake].

   The scheduler is a single event loop over a deterministic priority queue,
   so a given program and seed always produce the same interleaving.

   Two failure detectors guard the loop. If the event queue drains while
   processes are still blocked (a lost wakeup or a lock cycle), or if a
   configurable span of virtual time passes in which only bare thunks run
   and no process makes progress (a retransmission livelock), [run] raises
   [Deadlock] carrying a structured diagnosis: every blocked process with
   its label, plus whatever lines the registered subsystem reporters (the
   transport's per-link unacked queues, the lock managers' queue depths)
   contribute. *)

type pid = int

type proc_state = Created | Running | Blocked | Finished

type proc = {
  pid : pid;
  mutable state : proc_state;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable wake_pending : bool;
  mutable blocked_label : string;  (* what the process is waiting for *)
}

type action = Start of proc * (pid -> unit) | Resume of proc | Thunk of (unit -> unit)

type t = {
  mutable now : int;
  queue : action Pqueue.t;
  mutable procs : proc array;  (* indexed by pid; first [nprocs] slots live *)
  mutable nprocs : int;
  mutable live : int;
  mutable diagnostics : (unit -> string list) list;  (* subsystem reporters *)
  mutable stall_budget : int option;  (* max virtual ns without progress *)
  mutable last_progress : int;  (* last time a process ran or finished *)
  mutable probe : Probe.t option;  (* pure observer of scheduling decisions *)
}

type diagnosis = {
  diag_time : int;  (* simulated time of the diagnosis *)
  diag_live : int;  (* processes not yet finished *)
  diag_blocked : (pid * string) list;  (* blocked processes and their labels *)
  diag_stalled : bool;  (* true: watchdog budget exceeded; false: queue drained *)
  diag_notes : string list;  (* lines from registered subsystem reporters *)
}

exception Deadlock of diagnosis

let pp_diagnosis ppf d =
  Format.fprintf ppf "@[<v>%s at t=%d ns: %d process(es) live, %d blocked"
    (if d.diag_stalled then "stall watchdog fired" else "event queue drained")
    d.diag_time d.diag_live
    (List.length d.diag_blocked);
  List.iter
    (fun (pid, label) -> Format.fprintf ppf "@   p%d waiting on %s" pid label)
    d.diag_blocked;
  List.iter (fun note -> Format.fprintf ppf "@   %s" note) d.diag_notes;
  Format.fprintf ppf "@]"

let diagnosis_to_string d = Format.asprintf "%a" pp_diagnosis d

let create () =
  {
    now = 0;
    queue = Pqueue.create ();
    procs = [||];
    nprocs = 0;
    live = 0;
    diagnostics = [];
    stall_budget = None;
    last_progress = 0;
    probe = None;
  }

let now t = t.now

let set_probe t probe = t.probe <- probe

let emit_probe t event = match t.probe with Some f -> f event | None -> ()

let add_diagnostic t f = t.diagnostics <- t.diagnostics @ [ f ]

let set_stall_budget t budget =
  (match budget with
  | Some ns when ns <= 0 -> invalid_arg "Engine.set_stall_budget: budget must be positive"
  | _ -> ());
  t.stall_budget <- budget

let schedule t ~at f =
  if at < t.now then invalid_arg "Engine.schedule: cannot schedule in the past";
  Pqueue.push t.queue ~time:at (Thunk f)

let schedule_after t ~delay f = schedule t ~at:(t.now + delay) f

let spawn t body =
  let pid = t.nprocs in
  let proc = { pid; state = Created; cont = None; wake_pending = false; blocked_label = "" } in
  if pid >= Array.length t.procs then begin
    let grown = Array.make (max 8 (2 * Array.length t.procs)) proc in
    Array.blit t.procs 0 grown 0 t.nprocs;
    t.procs <- grown
  end;
  t.procs.(pid) <- proc;
  t.nprocs <- t.nprocs + 1;
  t.live <- t.live + 1;
  Pqueue.push t.queue ~time:t.now (Start (proc, body));
  pid

let find_proc t pid =
  if pid < 0 || pid >= t.nprocs then
    invalid_arg (Printf.sprintf "Engine: unknown pid %d" pid)
  else t.procs.(pid)

(* Effects performed by process bodies. *)

type _ Effect.t +=
  | Advance : int -> unit Effect.t
  | Block : string -> unit Effect.t

let advance ns =
  if ns < 0 then invalid_arg "Engine.advance: negative duration";
  if ns > 0 then Effect.perform (Advance ns)

let advance_f ns = advance (int_of_float ns)

let block ~label = Effect.perform (Block label)

let wake t pid =
  let proc = find_proc t pid in
  match proc.state with
  | Blocked ->
      proc.state <- Running;
      emit_probe t (Probe.Proc_resume { pid });
      Pqueue.push t.queue ~time:t.now (Resume proc)
  | Created | Running -> proc.wake_pending <- true
  | Finished -> ()

(* The scheduler. *)

let run_fiber t proc body =
  let open Effect.Deep in
  proc.state <- Running;
  match_with body proc.pid
    {
      retc =
        (fun () ->
          proc.state <- Finished;
          t.live <- t.live - 1;
          emit_probe t (Probe.Proc_finish { pid = proc.pid }));
      exnc = (fun exn -> raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Advance ns ->
              Some
                (fun (k : (a, unit) continuation) ->
                  proc.cont <- Some k;
                  Pqueue.push t.queue ~time:(t.now + ns) (Resume proc))
          | Block label ->
              Some
                (fun (k : (a, unit) continuation) ->
                  if proc.wake_pending then begin
                    proc.wake_pending <- false;
                    continue k ()
                  end
                  else begin
                    proc.state <- Blocked;
                    proc.blocked_label <- label;
                    proc.cont <- Some k;
                    emit_probe t (Probe.Proc_block { pid = proc.pid; label })
                  end)
          | _ -> None);
    }

let resume_fiber proc =
  match proc.cont with
  | Some k ->
      proc.cont <- None;
      proc.state <- Running;
      Effect.Deep.continue k ()
  | None -> invalid_arg "Engine: resume of a process with no continuation"

let blocked_procs t =
  let acc = ref [] in
  for pid = t.nprocs - 1 downto 0 do
    let p = t.procs.(pid) in
    if p.state = Blocked then acc := (p.pid, p.blocked_label) :: !acc
  done;
  !acc

let diagnose t ~stalled =
  {
    diag_time = t.now;
    diag_live = t.live;
    diag_blocked = blocked_procs t;
    diag_stalled = stalled;
    diag_notes = List.concat_map (fun f -> f ()) t.diagnostics;
  }

let run t =
  t.last_progress <- t.now;
  let rec loop () =
    match Pqueue.pop t.queue with
    | None -> if t.live > 0 then raise (Deadlock (diagnose t ~stalled:false))
    | Some (time, action) ->
        t.now <- time;
        (match t.stall_budget with
        | Some budget when t.live > 0 && t.now - t.last_progress > budget ->
            raise (Deadlock (diagnose t ~stalled:true))
        | _ -> ());
        (match action with
        | Start (proc, body) ->
            t.last_progress <- t.now;
            run_fiber t proc body
        | Resume proc ->
            t.last_progress <- t.now;
            resume_fiber proc
        | Thunk f -> f ());
        loop ()
  in
  loop ()
