(** Hypercall vocabulary and in-flight call records.

    The mix mirrors the hypercalls the paper's workloads stress: virtual
    memory management (mmu_update, update_va_mapping, memory_op) for
    UnixBench, grant-table and event-channel operations for BlkBench /
    NetBench I/O, scheduling operations, and the multicall batching whose
    fine-granularity retry Section IV introduces. *)

type kind =
  | Mmu_update of int (* number of page-table entry updates *)
  | Update_va_mapping
  | Memory_op_populate (* increase reservation: allocates frames *)
  | Memory_op_decrease (* decrease reservation: frees frames *)
  | Grant_table_op of int (* number of grant map/unmap sub-ops *)
  | Event_channel_send
  | Event_channel_bind
  | Sched_op_yield
  | Sched_op_block
  | Set_timer_op
  | Console_io
  | Vcpu_op_info
  | Domctl_create_domain
  | Domctl_destroy_domain
  | Domctl_pause_domain
  | Multicall of kind list

let rec name = function
  | Mmu_update n -> Printf.sprintf "mmu_update(%d)" n
  | Update_va_mapping -> "update_va_mapping"
  | Memory_op_populate -> "memory_op(populate)"
  | Memory_op_decrease -> "memory_op(decrease)"
  | Grant_table_op n -> Printf.sprintf "grant_table_op(%d)" n
  | Event_channel_send -> "evtchn_send"
  | Event_channel_bind -> "evtchn_bind"
  | Sched_op_yield -> "sched_op(yield)"
  | Sched_op_block -> "sched_op(block)"
  | Set_timer_op -> "set_timer_op"
  | Console_io -> "console_io"
  | Vcpu_op_info -> "vcpu_op(info)"
  | Domctl_create_domain -> "domctl(create)"
  | Domctl_destroy_domain -> "domctl(destroy)"
  | Domctl_pause_domain -> "domctl(pause)"
  | Multicall kinds ->
    Printf.sprintf "multicall[%s]" (String.concat "," (List.map name kinds))

(* Constant-string variant of [name] for the flight recorder's hot path:
   drops the per-call detail (sub-op counts, multicall contents) so no
   formatting -- and no allocation -- happens per hypercall. *)
let static_name = function
  | Mmu_update _ -> "mmu_update"
  | Update_va_mapping -> "update_va_mapping"
  | Memory_op_populate -> "memory_op(populate)"
  | Memory_op_decrease -> "memory_op(decrease)"
  | Grant_table_op _ -> "grant_table_op"
  | Event_channel_send -> "evtchn_send"
  | Event_channel_bind -> "evtchn_bind"
  | Sched_op_yield -> "sched_op(yield)"
  | Sched_op_block -> "sched_op(block)"
  | Set_timer_op -> "set_timer_op"
  | Console_io -> "console_io"
  | Vcpu_op_info -> "vcpu_op(info)"
  | Domctl_create_domain -> "domctl(create)"
  | Domctl_destroy_domain -> "domctl(destroy)"
  | Domctl_pause_domain -> "domctl(pause)"
  | Multicall _ -> "multicall"

(* Hypercalls whose naive re-execution corrupts state: they update
   reference counters / validation bits in page-frame descriptors. *)
let rec non_idempotent = function
  | Mmu_update _ | Update_va_mapping | Memory_op_populate | Memory_op_decrease
  | Grant_table_op _ | Domctl_create_domain | Domctl_destroy_domain ->
    true
  | Event_channel_send | Event_channel_bind | Sched_op_yield | Sched_op_block
  | Set_timer_op | Console_io | Vcpu_op_info | Domctl_pause_domain ->
    false
  | Multicall kinds -> List.exists non_idempotent kinds

(* In-flight record attached to the issuing vCPU; recovery uses it to set
   the vCPU up so the hypercall is retried on resume. The record carries
   the call's arguments (a retried hypercall replays the *same*
   arguments, which is what makes non-idempotent re-execution dangerous)
   and its undo journal. *)
type record = {
  kind : kind;
  mutable sub_completed : int;
      (* completed components of a multicall, logged when
         hypercall_progress_tracking is on (fine-granularity retry) *)
  mutable retries : int;
  mutable committed : bool;
  mutable target_frames : int list; (* frame arguments, fixed on first run *)
  mutable fresh_frames : int list; (* frames allocated by this call *)
  mutable children : record list; (* per-component records of a multicall *)
  enhanced : bool;
      (* [false] models the handlers the retry-failure mitigation did not
         cover ("we have not tested all hypercall handlers... the changes
         do not resolve 100% of the problem", Section IV) *)
  journal : Journal.t;
}

let make_record ~enhanced ~logging kind =
  let journal = Journal.create () in
  Journal.set_enabled journal (logging && enhanced);
  {
    kind;
    sub_completed = 0;
    retries = 0;
    committed = false;
    target_frames = [];
    fresh_frames = [];
    children = [];
    enhanced;
    journal;
  }
