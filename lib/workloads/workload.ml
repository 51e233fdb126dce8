(** The three synthetic benchmarks of Section VI-A, expressed as
    distributions over the hypervisor requests they generate.

    - BlkBench exercises the block-device interface: it creates, copies,
      reads, writes and removes 1 MB files with guest caching off, so
      every operation reaches the hypervisor as grant-table and
      event-channel traffic plus backend block interrupts.
    - UnixBench stresses hypercall handling, especially virtual memory
      management (mmu_update, update_va_mapping, memory_op, multicall
      batches) plus process activity (forwarded system calls).
    - NetBench is a user-level UDP ping handled every 1 ms: event
      channels, small grant maps, network backend interrupts. *)

type kind = Blkbench | Unixbench | Netbench

let kind_name = function
  | Blkbench -> "BlkBench"
  | Unixbench -> "UnixBench"
  | Netbench -> "NetBench"

(* Weighted menu of the hypercalls a guest running this benchmark
   issues. Weights are request-frequency calibrated: they determine
   which hypervisor path a random fault lands in, which in turn drives
   the recovery-rate profile. *)
let hypercall_menu = function
  | Unixbench ->
    [
      (0.27, `Mmu);
      (0.18, `Va);
      (0.06, `Mem_pop);
      (0.06, `Mem_dec);
      (0.09, `Multicall);
      (0.12, `Block);
      (0.06, `Yield);
      (0.05, `Set_timer);
      (0.02, `Console);
      (0.03, `Vcpu_info);
      (0.06, `Evt_send);
    ]
  | Blkbench ->
    [
      (0.48, `Grant);
      (0.18, `Evt_send);
      (0.06, `Mmu);
      (0.06, `Va);
      (0.05, `Mem_pop);
      (0.05, `Mem_dec);
      (0.06, `Block);
      (0.03, `Set_timer);
      (0.03, `Multicall);
    ]
  | Netbench ->
    [
      (0.34, `Evt_send);
      (0.28, `Grant);
      (0.10, `Block);
      (0.12, `Set_timer);
      (0.06, `Va);
      (0.05, `Mmu);
      (0.05, `Vcpu_info);
    ]

(* Relative share of forwarded system calls vs hypercalls in the guest's
   hypervisor entries (x86-64: system calls trap into the hypervisor). *)
let syscall_share = function
  | Unixbench -> 0.30
  | Blkbench -> 0.18
  | Netbench -> 0.12

(* Device-interrupt pressure this benchmark puts on the PrivVM backends:
   (block, net) relative weights. *)
let device_share = function
  | Blkbench -> (0.9, 0.1)
  | Unixbench -> (0.2, 0.1)
  | Netbench -> (0.1, 0.9)

(* Every hypercall a menu tag can produce, one per value of its drawn
   argument: [Mmu_update (1 + Rng.int rng 4)] becomes four kinds picked
   by that same [Rng.int rng 4] draw. Tags with one kind draw nothing. *)
let tag_kinds : _ -> Hyper.Hypercalls.kind array = function
  | `Mmu -> Array.init 4 (fun i -> Hyper.Hypercalls.Mmu_update (1 + i))
  | `Va -> [| Hyper.Hypercalls.Update_va_mapping |]
  | `Mem_pop -> [| Hyper.Hypercalls.Memory_op_populate |]
  | `Mem_dec -> [| Hyper.Hypercalls.Memory_op_decrease |]
  | `Grant -> Array.init 3 (fun i -> Hyper.Hypercalls.Grant_table_op (1 + i))
  | `Evt_send -> [| Hyper.Hypercalls.Event_channel_send |]
  | `Block -> [| Hyper.Hypercalls.Sched_op_block |]
  | `Yield -> [| Hyper.Hypercalls.Sched_op_yield |]
  | `Set_timer -> [| Hyper.Hypercalls.Set_timer_op |]
  | `Console -> [| Hyper.Hypercalls.Console_io |]
  | `Vcpu_info -> [| Hyper.Hypercalls.Vcpu_op_info |]
  | `Multicall ->
    Array.init 2 (fun i ->
        Hyper.Hypercalls.Multicall
          [
            Hyper.Hypercalls.Mmu_update (1 + i);
            Hyper.Hypercalls.Update_va_mapping;
            Hyper.Hypercalls.Mmu_update 1;
          ])

(* Sampling-time form of a menu, built once per benchmark kind: the
   cumulative weights and, flattened in menu order, every kind the menu
   can produce. Tag [i]'s kinds are [kinds.(first.(i))] onwards,
   [arity.(i)] of them. [choose_index_cum] over [cum] draws exactly as
   [choose_weighted] over the menu list would (same single float draw,
   same boundaries), and the argument draw follows it as before. *)
type menu = {
  cum : float array;
  first : int array;
  arity : int array;
  kinds : Hyper.Hypercalls.kind array;
}

let build_menu kind =
  let per_tag = Array.of_list (List.map (fun (_, tag) -> tag_kinds tag) (hypercall_menu kind)) in
  let arity = Array.map Array.length per_tag in
  let first = Array.make (Array.length arity) 0 in
  for i = 1 to Array.length arity - 1 do
    first.(i) <- first.(i - 1) + arity.(i - 1)
  done;
  {
    cum = Sim.Rng.cumulative (hypercall_menu kind);
    first;
    arity;
    kinds = Array.concat (Array.to_list per_tag);
  }

let menu_unixbench = build_menu Unixbench
let menu_blkbench = build_menu Blkbench
let menu_netbench = build_menu Netbench

let menu = function
  | Unixbench -> menu_unixbench
  | Blkbench -> menu_blkbench
  | Netbench -> menu_netbench

(* Index into [m.kinds] of the next sampled hypercall. *)
let draw_kind rng m =
  let i = Sim.Rng.choose_index_cum rng m.cum in
  match m.arity.(i) with
  | 1 -> m.first.(i)
  | n -> m.first.(i) + Sim.Rng.int rng n

(* A benchmark bound to a domain. [syscalls] and [hypercalls] hold every
   activity [sample_activity] can return, built once at [create] so a
   sample allocates nothing: [syscalls.(vid)] and
   [hypercalls.(vid * nkinds + k)] for [k] indexing the menu's kinds. *)
type t = {
  kind : kind;
  domid : int;
  vcpus : int; (* vCPUs the guest spreads its work across *)
  mutable activities_run : int;
  mutable verified_ok : bool;
  syscalls : Hyper.Hypervisor.activity array;
  hypercalls : Hyper.Hypervisor.activity array;
}

let create ?(vcpus = 1) kind ~domid =
  let vcpus = max 1 vcpus in
  let kinds = (menu kind).kinds in
  let nkinds = Array.length kinds in
  {
    kind;
    domid;
    vcpus;
    activities_run = 0;
    verified_ok = true;
    syscalls =
      Array.init vcpus (fun vid -> Hyper.Hypervisor.Syscall_forward { domid; vid });
    hypercalls =
      Array.init (vcpus * nkinds) (fun i ->
          Hyper.Hypervisor.Hypercall
            { domid; vid = i / nkinds; kind = kinds.(i mod nkinds) });
  }

(* Sample one hypervisor entry caused by this benchmark's guest: the vCPU,
   syscall-or-hypercall, then the hypercall and its argument, in that
   draw order. *)
let sample_activity rng t : Hyper.Hypervisor.activity =
  let vid = if t.vcpus = 1 then 0 else Sim.Rng.int rng t.vcpus in
  if Sim.Rng.chance rng (syscall_share t.kind) then t.syscalls.(vid)
  else
    let m = menu t.kind in
    t.hypercalls.((vid * Array.length m.kinds) + draw_kind rng m)

(* Verification criteria (Section VI-A): BlkBench and UnixBench compare
   produced files against a golden copy and watch for failed system
   calls; both are represented by the guest-state flags the simulation
   maintains. *)
let check_guest_outputs (dom : Hyper.Domain.t) =
  (not dom.Hyper.Domain.guest_sdc) && not dom.Hyper.Domain.guest_failed
