(** Common shape of the four benchmark applications, consumed by the
    driver, CLI, benchmarks and tests. *)

type t = {
  name : string;
  input_description : string;  (** Table 1's "Input Set" column *)
  synchronization : string;  (** Table 1's "Synchronization" column *)
  memory_bytes : int;  (** size of the shared data segment *)
  binary : unit -> Instrument.Binary.t;  (** synthetic image for Table 2 *)
  body : Coherence.Dsm.node -> unit;
      (** SPMD body run by every simulated processor; raises on a failed
          self-check so broken coherence can never pass silently *)
}

val pages_needed : t -> page_size:int -> int

val runtime_sections :
  name:string -> library_name:string -> library:int -> cvm:int -> Instrument.Binary.run list
(** Flat library and CVM-runtime sections with the usual ~3:1
    load:store mix, as counted runs. *)

val fp_gp_ops : name:string -> stack:int -> static_data:int -> Instrument.Ir.op list
(** Frame-pointer and global-pointer accesses for an application-text
    CFG, again split ~3:1. *)
