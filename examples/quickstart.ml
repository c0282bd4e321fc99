(* Quickstart: write a tiny SPMD program against the DSM API, run it on a
   simulated 4-processor cluster, and let the coherency-piggybacked
   detector tell you about your races.

     dune exec examples/quickstart.exe
*)

let () =
  (* A cluster is nprocs simulated processors connected by a modeled
     network, running the lazy-release-consistent DSM with online race
     detection on (the default configuration). *)
  let cluster = Lrc.Cluster.create ~nprocs:4 ~pages:8 () in

  (* Shared memory is allocated up front (like G_MALLOC) ... *)
  let hits = Lrc.Cluster.alloc cluster 8 in
  let scratch = Lrc.Cluster.alloc cluster 8 in

  (* ... and the SPMD body below runs on every processor. *)
  let body node =
    let open Coherence.Dsm in
    barrier node;

    (* properly synchronized shared counter: no race *)
    with_lock node 0 (fun () ->
        let v = read_int node hits in
        write_int node hits (v + 1));

    (* a deliberate bug: processor 0 publishes a value and processor 3
       reads it with no synchronization in between *)
    if pid node = 0 then write_int node scratch 42 ~site:"quickstart:publish";
    if pid node = 3 then ignore (read_int node scratch ~site:"quickstart:consume");

    barrier node;
    if pid node = 0 then Format.printf "hits = %d (expected 4)@." (read_int node hits);
    barrier node
  in
  Lrc.Cluster.run cluster ~body;

  (* The detector ran at each barrier, comparing the access bitmaps of
     concurrent intervals. Only the unsynchronized pair is reported. *)
  Format.printf "@.The detector found:@.";
  List.iter (fun race -> Format.printf "  %a@." Proto.Race.pp race)
    (Lrc.Cluster.races cluster);
  Format.printf "@.(the lock-protected counter at 0x%x is NOT reported;@." hits;
  Format.printf " the unsynchronized word is 0x%x)@." scratch
