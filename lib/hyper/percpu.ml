(** Per-CPU hypervisor data.

    [local_irq_count] records interrupt-nesting depth and is checked by
    assertions ("is this CPU currently servicing an interrupt?"); because
    microreset discards all execution threads, these counters are left
    non-zero and must be cleared by the "Clear IRQ count" enhancement --
    the very first enhancement in Table I, without which recovery never
    succeeds. *)

type t = {
  cpu : int;
  mutable local_irq_count : int;
  mutable in_hypercall_depth : int;
  mutable curr_domid : int; (* authoritative: domain running on this CPU *)
  mutable curr_vcpuid : int;
  (* Guest FS/GS bases saved on hypervisor entry (the x86-64 port fix),
     meaningful while [fsgs_saved]. Plain fields, so saving them on every
     entry allocates nothing. *)
  mutable fsgs_saved : bool;
  mutable saved_fs : int64;
  mutable saved_gs : int64;
  heap_lock : Spinlock.t; (* per-CPU scheduler/timer lock, heap-resident *)
}

let create heap cpu =
  let lock =
    Spinlock.create ~name:(Printf.sprintf "percpu%d_sched" cpu) ~location:Spinlock.Heap
  in
  (* The per-CPU area (and its locks) live in the Xen heap, so the
     heap-lock-release mechanism covers them. *)
  ignore (Heap.alloc heap ~size:4096 (Heap.Lock lock));
  ignore (Heap.alloc heap ~size:4096 (Heap.Percpu_area cpu));
  {
    cpu;
    local_irq_count = 0;
    in_hypercall_depth = 0;
    curr_domid = -1;
    curr_vcpuid = -1;
    fsgs_saved = false;
    saved_fs = 0L;
    saved_gs = 0L;
    heap_lock = lock;
  }

let clear_guest_fsgs t =
  t.fsgs_saved <- false;
  t.saved_fs <- 0L;
  t.saved_gs <- 0L

(* Reset for machine reuse: clear the mutable state and re-allocate the
   two per-CPU heap objects on the (just reset) heap in the same order and
   sizes as [create], so heap object ids line up exactly with a fresh
   boot's allocation sequence. The lock record is reused in place. *)
let reset heap t =
  Spinlock.reset t.heap_lock;
  ignore (Heap.alloc heap ~size:4096 (Heap.Lock t.heap_lock));
  ignore (Heap.alloc heap ~size:4096 (Heap.Percpu_area t.cpu));
  t.local_irq_count <- 0;
  t.in_hypercall_depth <- 0;
  t.curr_domid <- -1;
  t.curr_vcpuid <- -1;
  clear_guest_fsgs t

let save_guest_fsgs t (regs : Hw.Regs.t) =
  t.fsgs_saved <- true;
  t.saved_fs <- Hw.Regs.get regs Hw.Regs.FS;
  t.saved_gs <- Hw.Regs.get regs Hw.Regs.GS

let irq_enter t = t.local_irq_count <- t.local_irq_count + 1

let irq_exit t =
  if not (t.local_irq_count > 0) then
    Crash.assert_failed "cpu%d: irq_exit with count %d" t.cpu t.local_irq_count;
  t.local_irq_count <- t.local_irq_count - 1

let assert_not_in_irq t =
  if not (t.local_irq_count = 0) then
    Crash.assert_failed "cpu%d: scheduling while local_irq_count = %d" t.cpu
      t.local_irq_count

let clear_irq_count t = t.local_irq_count <- 0
