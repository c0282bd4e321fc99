(* Common shape of the four benchmark applications. The driver, the CLI,
   the benchmarks and the tests all consume this record. *)

type t = {
  name : string;
  input_description : string;  (* Table 1's "Input Set" column *)
  synchronization : string;  (* Table 1's "Synchronization" column *)
  memory_bytes : int;  (* size of the shared data segment *)
  binary : unit -> Instrument.Binary.t;  (* synthetic image for Table 2 *)
  body : Coherence.Dsm.node -> unit;
      (* SPMD body run by every simulated processor; raises on a failed
         self-check so broken coherence can never pass silently *)
}

let pages_needed t ~page_size = ((t.memory_bytes + page_size - 1) / page_size) + 4

(* Shared helpers for the synthetic images: Table-2-style section counts
   with the usual ~3:1 load:store mix. The library and CVM sections stay
   flat (classified by origin alone); the application text is a CFG —
   these ops carry the frame/global-pointer accesses, and each app adds
   its own computed-address structure on top. *)

let split n = (n * 3 / 4, n - (n * 3 / 4))

let runtime_sections ~name ~library_name ~library ~cvm =
  let lib_loads, lib_stores = split library in
  let cvm_loads, cvm_stores = split cvm in
  Instrument.Binary.section
    ~origin:(Instrument.Binary.Library library_name)
    ~prefix:(name ^ ".lib") ~loads:lib_loads ~stores:lib_stores
  @ Instrument.Binary.section ~origin:Instrument.Binary.Cvm_runtime ~prefix:(name ^ ".cvm")
      ~loads:cvm_loads ~stores:cvm_stores

let fp_gp_ops ~name ~stack ~static_data =
  let stack_loads, stack_stores = split stack in
  let static_loads, static_stores = split static_data in
  [
    Instrument.Ir.load (Instrument.Ir.Fp 0) ~count:stack_loads ~site:(name ^ ".stack.ld");
    Instrument.Ir.store (Instrument.Ir.Fp 8) ~count:stack_stores ~site:(name ^ ".stack.st");
    Instrument.Ir.load
      (Instrument.Ir.Gp (name ^ ".data"))
      ~count:static_loads ~site:(name ^ ".static.ld");
    Instrument.Ir.store
      (Instrument.Ir.Gp (name ^ ".bss"))
      ~count:static_stores ~site:(name ^ ".static.st");
  ]
