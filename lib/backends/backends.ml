(* The backend registry: one place that knows every coherence backend by
   name and can build it from a shared configuration. Everything above
   this layer — driver, litmus harness, bench pipeline, CLI — selects a
   backend with [Config.backend] and stays otherwise unchanged. *)

let all = [ "lrc"; "mesi"; "dragon" ]

let describe = function
  | "lrc" -> Some "lazy-release-consistent DSM cluster (message-passing)"
  | "mesi" -> Some "snooping-bus multiprocessor, MESI write-invalidate"
  | "dragon" -> Some "snooping-bus multiprocessor, Dragon write-update"
  | _ -> None

let known name = List.mem name all

let unknown name =
  invalid_arg
    (Printf.sprintf "unknown backend %S (available: %s)" name
       (String.concat ", " all))

let create ?cost ?(cfg = Coherence.Config.default) ~nprocs ~pages () =
  match cfg.Coherence.Config.backend with
  | "lrc" -> Lrc.Cluster.backend ?cost ~cfg ~nprocs ~pages ()
  | "mesi" -> Cc.Machine.backend ?cost ~cfg ~protocol:Cc.Machine.Mesi ~nprocs ~pages ()
  | "dragon" ->
      Cc.Machine.backend ?cost ~cfg ~protocol:Cc.Machine.Dragon ~nprocs ~pages ()
  | name -> unknown name
