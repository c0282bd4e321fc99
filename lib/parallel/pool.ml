(* A small Domains work pool: a fixed set of workers pulling closures
   off one queue behind a mutex/condvar pair. Results travel through
   per-task cells (each with its own mutex/condvar), and the caller
   awaits the cells in submission order — which is what makes parallel
   sweeps render identically to sequential ones.

   The pool deliberately has no notion of priorities, cancellation,
   deadlines or nested submission: every intended task is one
   deterministic, self-contained simulation run (seconds of work), so a
   plain FIFO and submission-order harvesting are both sufficient and
   the easiest thing to prove deterministic. *)

type failure = { f_exn : exn; f_backtrace : string }

type t = {
  pool_jobs : int;
  lock : Mutex.t;
  nonempty : Condition.t;  (* signalled on enqueue and on close *)
  queue : (unit -> unit) Queue.t;  (* pending task closures *)
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

(* One result cell per task: the worker fills it under [c_lock] and
   signals; the submitting domain awaits it. *)
type 'a cell = {
  c_lock : Mutex.t;
  c_done : Condition.t;
  mutable c_result : ('a, failure) result option;
}

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let guard f =
  try Ok (f ())
  with e ->
    (* capture in the raising domain: backtraces are per-domain state *)
    Error { f_exn = e; f_backtrace = Printexc.get_backtrace () }

let rec worker pool =
  Mutex.lock pool.lock;
  while Queue.is_empty pool.queue && not pool.closed do
    Condition.wait pool.nonempty pool.lock
  done;
  match Queue.take_opt pool.queue with
  | None ->
      (* empty and closed: done *)
      Mutex.unlock pool.lock
  | Some job ->
      Mutex.unlock pool.lock;
      job ();
      worker pool

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Parallel.Pool.create: jobs must be >= 1";
  let pool =
    {
      pool_jobs = jobs;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [||];
    }
  in
  if jobs > 1 then pool.workers <- Array.init jobs (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let submit pool task =
  let cell = { c_lock = Mutex.create (); c_done = Condition.create (); c_result = None } in
  let job () =
    let r = guard task in
    Mutex.lock cell.c_lock;
    cell.c_result <- Some r;
    Condition.signal cell.c_done;
    Mutex.unlock cell.c_lock
  in
  if pool.pool_jobs = 1 then begin
    (* inline pool: run now, on this domain — sequential semantics *)
    if pool.closed then invalid_arg "Parallel.Pool: submit after shutdown";
    job ()
  end
  else begin
    Mutex.lock pool.lock;
    if pool.closed then begin
      Mutex.unlock pool.lock;
      invalid_arg "Parallel.Pool: submit after shutdown"
    end;
    Queue.add job pool.queue;
    Condition.signal pool.nonempty;
    Mutex.unlock pool.lock
  end;
  cell

let await cell =
  Mutex.lock cell.c_lock;
  while cell.c_result = None do
    Condition.wait cell.c_done cell.c_lock
  done;
  let r = match cell.c_result with Some r -> r | None -> assert false in
  Mutex.unlock cell.c_lock;
  r

let shutdown pool =
  Mutex.lock pool.lock;
  pool.closed <- true;
  Condition.broadcast pool.nonempty;
  (* run anything still queued here rather than stranding its awaiters *)
  let leftovers = List.of_seq (Queue.to_seq pool.queue) in
  Queue.clear pool.queue;
  Mutex.unlock pool.lock;
  List.iter (fun job -> job ()) leftovers;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let run pool tasks = List.map await (List.map (submit pool) tasks)

let map_exn pool f xs =
  List.map
    (function
      | Ok v -> v
      | Error { f_exn; f_backtrace = _ } -> raise f_exn)
    (run pool (List.map (fun x () -> f x) xs))
