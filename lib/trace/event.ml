(* The trace event vocabulary: every sim-level decision and protocol-level
   action a run makes, rich enough that a log alone reconstructs the race
   set and the final memory checksum, and precise enough that replaying
   the run against the log pinpoints the first divergence. *)

type fault_outcome =
  | Passed of { copies : int; extra_delay_ns : int }
      (* the frame survived, possibly duplicated or delayed *)
  | Dropped  (* lost to the drop probability *)
  | Blackholed  (* swallowed by a partition window *)

type bus_kind =
  | Bus_rd  (* read-miss line fill *)
  | Bus_rdx  (* write-miss fill with invalidation *)
  | Bus_upgr  (* ownership upgrade, no data *)
  | Bus_upd  (* Dragon word broadcast *)
  | Bus_wb  (* dirty-line writeback *)
  | Bus_sync  (* lock/barrier read-modify-write *)

type t =
  (* wire + transport *)
  | Msg_send of { src : int; dst : int; kind : string; bytes : int }
  | Msg_deliver of { src : int; dst : int; kind : string; bytes : int }
  | Fault of { src : int; dst : int; outcome : fault_outcome }
  | Partition of { a : int; b : int; up : bool }
  | Retransmit of { src : int; dst : int; seq : int }
  | Ack of { src : int; dst : int; cum : int }
  | Link_failure of { src : int; dst : int }
  (* scheduling *)
  | Proc_block of { proc : int; label : string }
  | Proc_resume of { proc : int }
  | Proc_finish of { proc : int }
  (* DSM protocol *)
  | Page_fault of { proc : int; page : int; kind : Proto.Race.access_kind }
  | Diff_fetch of { proc : int; page : int; count : int }
  | Diff_apply of { proc : int; page : int; words : int }
  | Lock_acquire of { proc : int; lock : int; vc : Proto.Vclock.t }
  | Lock_release of { proc : int; lock : int; vc : Proto.Vclock.t }
  | Barrier_enter of { proc : int; epoch : int }
  | Barrier_leave of { proc : int; epoch : int; vc : Proto.Vclock.t }
  | Interval_open of { proc : int; index : int; epoch : int }
  | Interval_close of {
      proc : int;
      index : int;
      epoch : int;
      write_pages : int list;
      read_pages : int list;
    }
  (* snooping-bus cache backends *)
  | Bus of { proc : int; kind : bus_kind; line : int }
      (* one bus transaction won by [proc]; [line] is the cache-line
         number, or the lock/barrier id for [Bus_sync] *)
  (* detection *)
  | Check_entry of {
      a : Proto.Interval.id;
      b : Proto.Interval.id;
      pages : int list;
    }
  | Race of Proto.Race.t
  (* terminal summary *)
  | Run_end of { checksum : int; sim_time_ns : int; races : int }

let of_probe : Sim.Probe.event -> t = function
  | Sim.Probe.Send { src; dst; bytes; tag } -> Msg_send { src; dst; kind = tag; bytes }
  | Sim.Probe.Deliver { src; dst; bytes; tag } -> Msg_deliver { src; dst; kind = tag; bytes }
  | Sim.Probe.Fault { src; dst; outcome } ->
      let outcome =
        match outcome with
        | Sim.Probe.Passed { copies; extra_delay_ns } -> Passed { copies; extra_delay_ns }
        | Sim.Probe.Dropped -> Dropped
        | Sim.Probe.Blackholed -> Blackholed
      in
      Fault { src; dst; outcome }
  | Sim.Probe.Partition { a; b; up } -> Partition { a; b; up }
  | Sim.Probe.Retransmit { src; dst; seq } -> Retransmit { src; dst; seq }
  | Sim.Probe.Ack_tx { src; dst; cum } -> Ack { src; dst; cum }
  | Sim.Probe.Link_failure { src; dst } -> Link_failure { src; dst }
  | Sim.Probe.Proc_block { pid; label } -> Proc_block { proc = pid; label }
  | Sim.Probe.Proc_resume { pid } -> Proc_resume { proc = pid }
  | Sim.Probe.Proc_finish { pid } -> Proc_finish { proc = pid }

let equal (a : t) (b : t) =
  match (a, b) with
  | Race ra, Race rb -> Proto.Race.equal ra rb
  | Lock_acquire x, Lock_acquire y ->
      x.proc = y.proc && x.lock = y.lock && Proto.Vclock.equal x.vc y.vc
  | Lock_release x, Lock_release y ->
      x.proc = y.proc && x.lock = y.lock && Proto.Vclock.equal x.vc y.vc
  | Barrier_leave x, Barrier_leave y ->
      x.proc = y.proc && x.epoch = y.epoch && Proto.Vclock.equal x.vc y.vc
  | _ -> a = b

let pp_outcome ppf = function
  | Passed { copies; extra_delay_ns } ->
      Format.fprintf ppf "passed(copies=%d,+%dns)" copies extra_delay_ns
  | Dropped -> Format.pp_print_string ppf "dropped"
  | Blackholed -> Format.pp_print_string ppf "blackholed"

let pp_pages ppf pages =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    pages

let bus_kind_name = function
  | Bus_rd -> "rd"
  | Bus_rdx -> "rdx"
  | Bus_upgr -> "upgr"
  | Bus_upd -> "upd"
  | Bus_wb -> "wb"
  | Bus_sync -> "sync"

let pp ppf = function
  | Msg_send { src; dst; kind; bytes } ->
      Format.fprintf ppf "send %d->%d %s (%dB)" src dst kind bytes
  | Msg_deliver { src; dst; kind; bytes } ->
      Format.fprintf ppf "deliver %d->%d %s (%dB)" src dst kind bytes
  | Fault { src; dst; outcome } ->
      Format.fprintf ppf "fault %d->%d %a" src dst pp_outcome outcome
  | Partition { a; b; up } ->
      Format.fprintf ppf "partition %d<->%d %s" a b (if up then "healed" else "cut")
  | Retransmit { src; dst; seq } ->
      Format.fprintf ppf "retransmit %d->%d seq %d" src dst seq
  | Ack { src; dst; cum } -> Format.fprintf ppf "ack %d->%d cum %d" src dst cum
  | Link_failure { src; dst } -> Format.fprintf ppf "link-failure %d->%d" src dst
  | Proc_block { proc; label } -> Format.fprintf ppf "block p%d (%s)" proc label
  | Proc_resume { proc } -> Format.fprintf ppf "resume p%d" proc
  | Proc_finish { proc } -> Format.fprintf ppf "finish p%d" proc
  | Page_fault { proc; page; kind } ->
      Format.fprintf ppf "%a-fault p%d page %d" Proto.Race.pp_kind kind proc page
  | Diff_fetch { proc; page; count } ->
      Format.fprintf ppf "diff-fetch p%d page %d (%d writer%s)" proc page count
        (if count = 1 then "" else "s")
  | Diff_apply { proc; page; words } ->
      Format.fprintf ppf "diff-apply p%d page %d (%d words)" proc page words
  | Lock_acquire { proc; lock; vc } ->
      Format.fprintf ppf "acquire p%d lock %d vc=%a" proc lock Proto.Vclock.pp vc
  | Lock_release { proc; lock; vc } ->
      Format.fprintf ppf "release p%d lock %d vc=%a" proc lock Proto.Vclock.pp vc
  | Barrier_enter { proc; epoch } ->
      Format.fprintf ppf "barrier-enter p%d epoch %d" proc epoch
  | Barrier_leave { proc; epoch; vc } ->
      Format.fprintf ppf "barrier-leave p%d epoch %d vc=%a" proc epoch Proto.Vclock.pp
        vc
  | Interval_open { proc; index; epoch } ->
      Format.fprintf ppf "interval-open %a epoch %d" Proto.Interval.pp_id
        { Proto.Interval.proc; index } epoch
  | Interval_close { proc; index; epoch; write_pages; read_pages } ->
      Format.fprintf ppf "interval-close %a epoch %d w=%a r=%a" Proto.Interval.pp_id
        { Proto.Interval.proc; index } epoch pp_pages write_pages pp_pages read_pages
  | Bus { proc; kind; line } ->
      Format.fprintf ppf "bus p%d %s %s %d" proc (bus_kind_name kind)
        (match kind with Bus_sync -> "sync" | _ -> "line")
        line
  | Check_entry { a; b; pages } ->
      Format.fprintf ppf "check %a vs %a pages %a" Proto.Interval.pp_id a
        Proto.Interval.pp_id b pp_pages pages
  | Race r -> Format.fprintf ppf "race %a" Proto.Race.pp r
  | Run_end { checksum; sim_time_ns; races } ->
      Format.fprintf ppf "run-end checksum=%08x sim_time=%dns races=%d" checksum
        sim_time_ns races

let to_string e = Format.asprintf "%a" pp e

(* Stable tag names, used by [trace --stats] and the chrome exporter. *)
let tag = function
  | Msg_send _ -> "msg-send"
  | Msg_deliver _ -> "msg-deliver"
  | Fault _ -> "fault"
  | Partition _ -> "partition"
  | Retransmit _ -> "retransmit"
  | Ack _ -> "ack"
  | Link_failure _ -> "link-failure"
  | Proc_block _ -> "proc-block"
  | Proc_resume _ -> "proc-resume"
  | Proc_finish _ -> "proc-finish"
  | Page_fault _ -> "page-fault"
  | Diff_fetch _ -> "diff-fetch"
  | Diff_apply _ -> "diff-apply"
  | Lock_acquire _ -> "lock-acquire"
  | Lock_release _ -> "lock-release"
  | Barrier_enter _ -> "barrier-enter"
  | Barrier_leave _ -> "barrier-leave"
  | Interval_open _ -> "interval-open"
  | Interval_close _ -> "interval-close"
  | Bus _ -> "bus"
  | Check_entry _ -> "check-entry"
  | Race _ -> "race"
  | Run_end _ -> "run-end"
