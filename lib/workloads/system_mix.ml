(** The whole-system distribution of hypervisor activity: guest-driven
    entries from every benchmark plus the hypervisor's own timer ticks,
    device interrupts, context switches and idle polling. A random
    fault injected "while the CPU is executing target hypervisor code"
    lands in an activity drawn from this mix. *)

type t = {
  benchmarks : Workload.t array;
  active_cpus : int array; (* CPUs with a pinned vCPU (incl. PrivVM's) *)
  blk_dom : int option; (* domain receiving block-device completions *)
  net_dom : int option; (* domain receiving network packets *)
  (* Device-interrupt pressure, folded over the benchmarks once at
     creation: cumulative weights [| blk; blk +. net |] of the two
     backends. *)
  device_cum : float array;
  (* Every activity [sample] returns outside the guest entries, built
     once so a sample allocates nothing: the per-CPU activities indexed
     like [active_cpus] (a single CPU 0 entry when there are none), and
     the device interrupt each backend choice ([device_cum] index)
     resolves to -- none when there is no backend domain. *)
  timer_ticks : Hyper.Hypervisor.activity array;
  ctx_switches : Hyper.Hypervisor.activity array;
  idle_polls : Hyper.Hypervisor.activity array;
  device_irqs : Hyper.Hypervisor.activity array;
}

let create ~benchmarks ~active_cpus ~blk_dom ~net_dom =
  (* Line 1 = block backend, line 2 = network backend. Device pressure
     follows the benchmarks that are running, folded in list order from a
     0.01 floor: the sums fix every device draw, so that order stays. *)
  let blk_w =
    List.fold_left
      (fun acc (b : Workload.t) -> acc +. fst (Workload.device_share b.Workload.kind))
      0.01 benchmarks
  and net_w =
    List.fold_left
      (fun acc (b : Workload.t) -> acc +. snd (Workload.device_share b.Workload.kind))
      0.01 benchmarks
  in
  let cpus = match active_cpus with [] -> [| 0 |] | l -> Array.of_list l in
  let per_cpu f = Array.map f cpus in
  let irq line d = Hyper.Hypervisor.Device_interrupt { line; target_dom = d } in
  (* A backend choice with no backend domain falls back to the other. *)
  let device_irqs =
    match (blk_dom, net_dom) with
    | Some b, Some n -> [| irq 1 b; irq 2 n |]
    | Some b, None -> [| irq 1 b; irq 1 b |]
    | None, Some n -> [| irq 2 n; irq 2 n |]
    | None, None -> [||]
  in
  {
    benchmarks = Array.of_list benchmarks;
    active_cpus = Array.of_list active_cpus;
    blk_dom;
    net_dom;
    device_cum = [| blk_w; blk_w +. net_w |];
    timer_ticks = per_cpu (fun c -> Hyper.Hypervisor.Timer_tick c);
    ctx_switches = per_cpu (fun c -> Hyper.Hypervisor.Context_switch c);
    idle_polls = per_cpu (fun c -> Hyper.Hypervisor.Idle_poll c);
    device_irqs;
  }

(* Category weights: guest entries dominate hypervisor execution time,
   followed by timer interrupts, device interrupts and scheduling. *)
let category_weights =
  [
    (0.38, `Guest_entry);
    (0.16, `Timer_tick);
    (0.08, `Device_interrupt);
    (0.31, `Context_switch);
    (0.07, `Idle);
  ]

let category_cum = Sim.Rng.cumulative category_weights
let category_tags = Array.of_list (List.map snd category_weights)

(* The per-CPU activity of a uniformly drawn active CPU; no draw when
   there are no active CPUs (the table's single entry is CPU 0's). *)
let on_random_cpu rng t table =
  match Array.length t.active_cpus with
  | 0 -> table.(0)
  | n -> table.(Sim.Rng.int rng n)

let sample rng t : Hyper.Hypervisor.activity =
  match category_tags.(Sim.Rng.choose_index_cum rng category_cum) with
  | `Guest_entry ->
    (match Array.length t.benchmarks with
    | 0 -> on_random_cpu rng t t.idle_polls
    | n -> Workload.sample_activity rng t.benchmarks.(Sim.Rng.int rng n))
  | `Timer_tick -> on_random_cpu rng t t.timer_ticks
  | `Device_interrupt ->
    (* Index 0, the block backend, is drawn when [float (blk +. net) <
       blk]. With no backend at all the interrupt is an idle poll. *)
    let backend = Sim.Rng.choose_index_cum rng t.device_cum in
    if Array.length t.device_irqs = 0 then on_random_cpu rng t t.idle_polls
    else t.device_irqs.(backend)
  | `Context_switch -> on_random_cpu rng t t.ctx_switches
  | `Idle -> on_random_cpu rng t t.idle_polls
