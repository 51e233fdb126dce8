(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VII), plus the perf sections behind the
   @bench-smoke and @bench-soak gates.

     dune exec bench/main.exe            -- every paper section, scaled down
     dune exec bench/main.exe -- --full  -- paper-sized campaigns
     dune exec bench/main.exe -- table1 figure2 ...  -- selected sections

   Campaign sizes are scaled down by default so the whole harness runs in
   minutes; pass --full for the paper's 1000/5000/2000 injections. A perf
   section runs only when named; it writes its BENCH_*.json into the
   working directory, then exits 1 if one of its gates fails. Sections
   are listed in [sections] at the bottom. *)

type opts = {
  full : bool;
  jobs : int; (* worker domains; --jobs 0 resolves to one per core *)
}

let hr title = Format.printf "@.==== %s ====@." title

(* A failed gate prints FAIL and exits 1. Every section writes its
   artifact before its gates, so a failing run still leaves the numbers
   behind. *)
let gate ok fmt =
  Format.kasprintf
    (fun msg ->
      if not ok then begin
        Format.printf "FAIL: %s@." msg;
        exit 1
      end)
    fmt

let write file json =
  Obs.Json.write_file file json;
  Format.printf "wrote %s@." file

(* Jobs invariance: the aggregate at every (jobs, value) point must equal
   the jobs=1 one. *)
let same_as_jobs1 ~what base points =
  List.iter
    (fun (jobs, v) ->
      gate (v = base) "%s: jobs=%d aggregate differs from jobs=1" what jobs)
    points

(* The success-rate tables: one campaign per (label, config) row, all at
   the same seeds, one "label success p +/- ci" line each. *)
let print_success ~width rows =
  List.iter
    (fun (label, r) ->
      Format.printf "%-*s success %a@." width label Sim.Stats.pp_proportion
        (Inject.Campaign.success_rate r))
    rows

let success_table opts ~width ~base_seed ~n rows =
  print_success ~width
    (List.map
       (fun (label, cfg) ->
         (label, Inject.Campaign.run ~label ~base_seed ~jobs:opts.jobs ~n cfg))
       rows)

(* ------------------------------------------------------------------ *)
(* Table I: incremental development of NiLiHype enhancements           *)
(* ------------------------------------------------------------------ *)

let table1 opts =
  hr "Table I: NiLiHype recovery rate by enhancement (1AppVM, failstop)";
  Format.printf "(paper: 0%% / 16.0%% / 51.8%% / 82.2%% / 95.0%% / 96.1%% / ~96.5%%)@.";
  print_success ~width:52
    (Core.Experiment.ladder ~base_seed:7000L ~jobs:opts.jobs
       ~n:(if opts.full then 1000 else 600))

(* ------------------------------------------------------------------ *)
(* Figure 2: recovery rate, NiLiHype vs ReHype, 3AppVM                 *)
(* ------------------------------------------------------------------ *)

let figure2 opts =
  hr "Figure 2: successful recovery rate (3AppVM)";
  Format.printf
    "(paper: Failstop ~96/~96, Register ~94.5/~96.4, Code ~88/~90; Success \
     and noVMF among detected errors)@.";
  let faults =
    [
      (Inject.Fault.Failstop, if opts.full then 1000 else 400);
      (Inject.Fault.Register, if opts.full then 5000 else 1500);
      (Inject.Fault.Code, if opts.full then 2000 else 800);
    ]
  in
  List.iter
    (fun (fault, n) ->
      List.iter
        (fun mechanism ->
          let cfg =
            Core.Experiment.config ~setup:Inject.Run.Three_appvm ~fault
              mechanism
          in
          let label = Inject.Vocab.label cfg.Inject.Run.mech fault in
          let r =
            Inject.Campaign.run ~label ~base_seed:31000L ~jobs:opts.jobs ~n cfg
          in
          let fmt_prop p = Format.asprintf "%a" Sim.Stats.pp_proportion p in
          Format.printf "%-22s Success %-18s noVMF %s@." label
            (fmt_prop (Inject.Campaign.success_rate r))
            (fmt_prop (Inject.Campaign.no_vmf_rate r)))
        [ Recovery.Engine.Nilihype; Recovery.Engine.Rehype ])
    faults

(* ------------------------------------------------------------------ *)
(* Section VII-A text: breakdown of injection outcomes per fault type  *)
(* ------------------------------------------------------------------ *)

let outcomes opts =
  hr "Injection outcome breakdown (Section VII-A text)";
  Format.printf
    "(paper: Register 74.8/5.6/19.6; Code 35.0/12.1/52.9; Failstop 0/0/100)@.";
  List.iter
    (fun (fault, n) ->
      let cfg =
        {
          Inject.Run.default_config with
          Inject.Run.fault;
          setup = Inject.Run.Three_appvm;
        }
      in
      let r = Inject.Campaign.run ~base_seed:52000L ~jobs:opts.jobs ~n cfg in
      let nm, sdc, det = Inject.Campaign.breakdown r in
      Format.printf "%-9s non-manifested %5.1f%%  SDC %5.1f%%  detected %5.1f%%@."
        (Inject.Fault.name fault) nm sdc det)
    [
      (Inject.Fault.Failstop, if opts.full then 500 else 200);
      (Inject.Fault.Register, if opts.full then 5000 else 1500);
      (Inject.Fault.Code, if opts.full then 2000 else 800);
    ]

(* ------------------------------------------------------------------ *)
(* Tables II and III: recovery latency breakdowns (8 GB, 8 CPUs)       *)
(* ------------------------------------------------------------------ *)

let table2 _ =
  hr "Table II: ReHype recovery latency breakdown (8 GB, 8 CPUs)";
  Format.printf "(paper total: 713ms; hw init 412ms, memory init 266ms, misc 35ms)@.";
  let b = Core.Latency.rehype_breakdown () in
  Format.printf "%a" Hyper.Latency_model.pp b

let table3 _ =
  hr "Table III: NiLiHype recovery latency breakdown (8 GB, 8 CPUs)";
  Format.printf "(paper total: 22ms; page-frame scan 21ms + others 1ms)@.";
  let b = Core.Latency.nilihype_breakdown () in
  Format.printf "%a" Hyper.Latency_model.pp b;
  let nl = Hyper.Latency_model.total b in
  let re = Hyper.Latency_model.total (Core.Latency.rehype_breakdown ()) in
  Format.printf "Latency ratio ReHype/NiLiHype: %.1fx (paper: >30x)@."
    (float_of_int re /. float_of_int nl)

(* ------------------------------------------------------------------ *)
(* Figure 3: hypervisor processing overhead in normal operation        *)
(* ------------------------------------------------------------------ *)

let figure3 opts =
  hr "Figure 3: hypervisor processing overhead (NiLiHype vs stock Xen)";
  Format.printf
    "(paper: logging dominates; worst case BlkBench; total-CPU impact <1%%)@.";
  let activities = if opts.full then 30000 else 8000 in
  List.iter
    (fun bench ->
      let m = Inject.Overhead.measure ~activities bench in
      Format.printf "%a@." Inject.Overhead.pp m)
    Inject.Overhead.configurations

(* ------------------------------------------------------------------ *)
(* Table IV: implementation complexity (LOC)                           *)
(* ------------------------------------------------------------------ *)

(* CLOC-style: blank and pure comment lines do not count. Paths are
   relative to the repository root; a missing file is an error, not a
   row of zeros. *)
let count_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e ->
    failwith
      (Printf.sprintf "table4: cannot read %s (run from the repository root)" e)
  | text ->
    List.length
      (List.filter
         (fun line ->
           let line = String.trim line in
           line <> "" && not (String.starts_with ~prefix:"(*" line))
         (String.split_on_char '\n' text))

let table4 _ =
  hr "Table IV: implementation complexity (lines of code)";
  Format.printf
    "(paper: NiLiHype ~1.9k / ReHype ~2.2k lines added+modified in Xen; the \
     same normal-operation vs recovery-only split applied to this code base)@.";
  let normal_op =
    [
      "lib/hyper/journal.ml"; (* non-idempotent hypercall logging *)
      "lib/hyper/config.ml"; (* feature flags for the added mechanisms *)
      "lib/hyper/cycle_account.ml"; (* measurement instrumentation *)
    ]
  in
  let recovery_shared =
    [
      "lib/recovery/common.ml";
      "lib/recovery/enhancement.ml";
      "lib/recovery/engine.ml";
    ]
  in
  let nilihype_only = [ "lib/recovery/microreset.ml" ] in
  let rehype_only = [ "lib/recovery/microreboot.ml" ] in
  let sum = List.fold_left (fun acc f -> acc + count_lines f) 0 in
  let norm = sum normal_op and shared = sum recovery_shared in
  let nl = sum nilihype_only and re = sum rehype_only in
  Format.printf "  %-46s %5d@." "normal-operation mechanisms (shared)" norm;
  Format.printf "  %-46s %5d@." "recovery code shared by both mechanisms" shared;
  Format.printf "  %-46s %5d@." "NiLiHype-specific recovery code" nl;
  Format.printf "  %-46s %5d@." "ReHype-specific recovery code" re;
  Format.printf "  NiLiHype total: %d   ReHype total: %d@." (norm + shared + nl)
    (norm + shared + re);
  Format.printf
    "  (shape preserved: ReHype needs more recovery-time code -- state \
     preservation and re-integration -- plus IO-APIC and boot-line logging)@."

(* ------------------------------------------------------------------ *)
(* Section VII-B: service interruption seen by NetBench                *)
(* ------------------------------------------------------------------ *)

let latency_service _ =
  hr "Service interruption (NetBench, 1 ms UDP ping, Section VII-B)";
  let nl = Hyper.Latency_model.total (Core.Latency.nilihype_breakdown ()) in
  let re = Hyper.Latency_model.total (Core.Latency.rehype_breakdown ()) in
  List.iter
    (fun (name, latency) ->
      let lost = latency / Sim.Time.ms 1 in
      Format.printf
        "%-9s recovery latency %a -> ~%d pings unanswered (1/ms sender)@." name
        Sim.Time.pp_ms latency lost)
    [ ("NiLiHype", nl); ("ReHype", re) ]

(* ------------------------------------------------------------------ *)
(* Ablation: discard all threads vs only the faulting thread           *)
(* (the design choice argued in Section III-C)                         *)
(* ------------------------------------------------------------------ *)

let ablation opts =
  hr "Ablation: microreset discard scope (Section III-C design choice)";
  Format.printf
    "(paper predicts discarding only the faulting thread is worse: surviving \
     threads collide with recovery's global state changes)@.";
  success_table opts ~width:36 ~base_seed:64000L
    ~n:(if opts.full then 1000 else 400)
    (List.map
       (fun (label, scope) ->
         ( label,
           {
             Inject.Run.default_config with
             Inject.Run.fault = Inject.Fault.Failstop;
             setup = Inject.Run.Three_appvm;
             discard_scope = scope;
           } ))
    [
      ("discard all threads (NiLiHype)", Inject.Run.Scope_all_threads);
      ("discard faulting thread only", Inject.Run.Scope_faulting_only);
    ])

(* ------------------------------------------------------------------ *)
(* Ablation: value of the non-idempotent hypercall mitigation          *)
(* (Section IV: logging off costs ~12% recovery rate)                  *)
(* ------------------------------------------------------------------ *)

let ablation_logging opts =
  hr "Ablation: non-idempotent hypercall retry mitigation (Section IV)";
  Format.printf "(paper: mitigation raises failstop recovery 84%% -> 96%%)@.";
  success_table opts ~width:44 ~base_seed:71000L
    ~n:(if opts.full then 1000 else 400)
    (List.map
       (fun (label, hv_config) ->
         ( label,
           {
             Inject.Run.default_config with
             Inject.Run.fault = Inject.Fault.Failstop;
             setup = Inject.Run.One_appvm Workloads.Workload.Unixbench;
             hv_config;
           } ))
    [
      ("with logging + code reordering", Hyper.Config.nilihype);
      ( "without logging (NiLiHype*)",
        { Hyper.Config.nilihype with Hyper.Config.nonidempotent_logging = false } );
      ( "without logging or reordering",
        {
          Hyper.Config.nilihype with
          Hyper.Config.nonidempotent_logging = false;
          code_reordering = false;
        } );
    ])

(* ------------------------------------------------------------------ *)
(* Extension: multiple vCPUs per CPU (the paper's future work)         *)
(* ------------------------------------------------------------------ *)

let multivcpu opts =
  hr "Extension: recovery rate with multiple vCPUs per CPU (future work)";
  Format.printf
    "(the paper leaves this to future work; richer scheduler state means \
     more metadata to make consistent at recovery)@.";
  success_table opts ~width:0 ~base_seed:83000L
    ~n:(if opts.full then 1000 else 400)
    (List.map
       (fun vcpus_per_cpu ->
         ( Printf.sprintf "%d vCPU(s) per CPU:" vcpus_per_cpu,
           {
             Inject.Run.default_config with
             Inject.Run.fault = Inject.Fault.Failstop;
             setup = Inject.Run.Three_appvm;
             vcpus_per_cpu;
           } ))
       [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of recovery hot paths                      *)
(* ------------------------------------------------------------------ *)

let microbench _ =
  hr "Microbenchmarks (wall clock, Bechamel)";
  let open Bechamel in
  let make_hv () =
    let clock = Sim.Clock.create () in
    Hyper.Hypervisor.boot ~mconfig:Hw.Machine.campaign_config
      ~config:Hyper.Config.nilihype ~setup:Hyper.Hypervisor.Three_appvm clock
  in
  let hv = make_hv () in
  let rng = Sim.Rng.create 99L in
  let tests =
    [
      Test.make ~name:"pfn_scan_64k_frames"
        (Staged.stage (fun () ->
             ignore (Hyper.Pfn.scan_and_fix hv.Hyper.Hypervisor.pfn)));
      Test.make ~name:"pfn_count_inconsistent_64k"
        (Staged.stage (fun () ->
             ignore (Hyper.Pfn.count_inconsistent hv.Hyper.Hypervisor.pfn)));
      (* Dirty 200 consecutive frames (one allocation burst), refresh the
         golden image; dirty them again with a write, rewind. The table
         ends each iteration unchanged. *)
      Test.make ~name:"pfn_snapshot_restore"
        (Staged.stage (fun () ->
             let pfn = hv.Hyper.Hypervisor.pfn in
             let frame k = Hyper.Pfn.get pfn (4096 + k) in
             for k = 0 to 199 do
               Hyper.Pfn.touch (frame k)
             done;
             Hyper.Pfn.snapshot pfn;
             for k = 0 to 199 do
               let d = frame k in
               Hyper.Pfn.touch d;
               d.Hyper.Pfn.use_count <- d.Hyper.Pfn.use_count + 1
             done;
             Hyper.Pfn.restore pfn));
      Test.make ~name:"microreset_recover"
        (Staged.stage (fun () ->
             Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu;
             ignore
               (Recovery.Microreset.recover hv ~enh:Recovery.Enhancement.full_set
                  ~detected_on:0)));
      Test.make ~name:"timer_heap_push_pop"
        (Staged.stage (fun () ->
             let th = Hyper.Timer_heap.create () in
             for i = 1 to 64 do
               ignore
                 (Hyper.Timer_heap.add th
                    ~deadline:(i * 17 mod 97)
                    Hyper.Timer_heap.Generic_oneshot)
             done;
             while Hyper.Timer_heap.pop th <> None do
               ()
             done));
      Test.make ~name:"hypercall_update_va_mapping"
        (Staged.stage (fun () ->
             Hyper.Hypervisor.execute hv rng
               (Hyper.Hypervisor.Hypercall
                  {
                    domid = 1;
                    vid = 0;
                    kind = Hyper.Hypercalls.Update_va_mapping;
                  })));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~stabilize:false () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Format.printf "  %-28s %12.1f ns/run@." name est
          | Some _ | None -> Format.printf "  %-28s (no estimate)@." name)
        results)
    tests

(* Campaigns allocate a few hundred kwords of minor heap per run (see the
   GC-budget test); with the default 256 kword minor heap every worker
   triggers a stop-the-world collection -- a cross-domain rendezvous --
   several times per run, which is what throttles [jobs > cores]
   oversubscription. A campaign-sized minor heap (4 Mwords per domain,
   ~32 MB) makes collections ~16x rarer without changing any result:
   totals depend only on seeds, never on GC scheduling. The dispatcher
   applies it before every perf section. *)
let tune_gc_for_campaigns () =
  let current = Gc.get () in
  let want = 4_194_304 in
  if current.Gc.minor_heap_size < want then
    Gc.set { current with Gc.minor_heap_size = want }

(* ------------------------------------------------------------------ *)
(* Scaling sweep: the same campaign at jobs=1,2,4 and one per core,     *)
(* with per-jobs throughput and per-run minor-heap allocation. The      *)
(* aggregates must be bit-identical across the sweep. Writes            *)
(* BENCH_scaling.json and the campaign's metrics snapshot               *)
(* OBS_campaign.json (nlh-obs/1).                                       *)
(* ------------------------------------------------------------------ *)

(* Artifacts are written into the working directory under fixed names:
   bench/dune validates these files by name in the bench build
   directory. *)
let scaling_file = "BENCH_scaling.json"
let obs_campaign_file = "OBS_campaign.json"

(* Throughput floor for every jobs>1 point, as a multiple of jobs=1:
   below it, parallel campaigns lose to a single worker. *)
let min_speedup = 0.9

(* Minor words per run ceiling, ~15% above the measured ~46 kwords/run:
   an allocation regression on the run path fails here first. *)
let max_words_per_run = 53_000.0

(* The sweep points the throughput floor and the words ceiling apply to.
   The extra one-per-core point is checked for identity only: a
   campaign's minor words include every worker domain's boot (~2k
   words/run per extra domain at n=240), so its words/run grows with the
   core count and would cross the ceiling from 5 domains on. *)
let gated_jobs = [ 1; 2; 4 ]

let scaling opts =
  hr "Campaign scaling sweep (jobs=1,2,4 and one per core)";
  let n = if opts.full then 1000 else 240 in
  let cfg = Inject.Run.default_config (* NiLiHype, failstop, 3AppVM *) in
  let sweep = List.sort_uniq compare [ 1; 2; 4; Inject.Vocab.jobs 0 ] in
  let results =
    (* (requested jobs, result): the result's own [jobs] field is the
       worker count that actually ran (capped at the core count). *)
    List.map
      (fun jobs ->
        ( jobs,
          Inject.Campaign.run
            ~label:(Printf.sprintf "jobs=%d" jobs)
            ~base_seed:90_000L ~jobs ~n cfg ))
      sweep
  in
  let base = snd (List.hd results) in
  let snap r = Inject.Campaign.snapshot r.Inject.Campaign.totals in
  same_as_jobs1 ~what:"scaling" (snap base)
    (List.map (fun (jobs, r) -> (jobs, snap r)) results);
  let base_rps = Inject.Campaign.runs_per_sec base in
  let speedup r =
    if base_rps > 0.0 then Inject.Campaign.runs_per_sec r /. base_rps else 1.0
  in
  let minor_per_run r =
    r.Inject.Campaign.minor_words
    /. float_of_int (max 1 r.Inject.Campaign.totals.Inject.Campaign.runs)
  in
  List.iter
    (fun (requested, r) ->
      Format.printf
        "jobs=%d (%d domain(s)): %8.1f runs/s  speedup %5.2fx  minor \
         words/run %10.0f@."
        requested r.Inject.Campaign.jobs
        (Inject.Campaign.runs_per_sec r)
        (speedup r) (minor_per_run r))
    results;
  let entry (requested, r) =
    Obs.Json.(
      Obj
        [
          ("jobs", of_int requested);
          ("domains_used", of_int r.Inject.Campaign.jobs);
          ("runs", of_int r.Inject.Campaign.totals.Inject.Campaign.runs);
          ("seconds", Number r.Inject.Campaign.wall_seconds);
          ("runs_per_sec", Number (Inject.Campaign.runs_per_sec r));
          ("speedup_vs_jobs1", Number (speedup r));
          ("minor_words_per_run", Number (minor_per_run r));
        ])
  in
  let cores = Obs.Json.of_int (Domain.recommended_domain_count ()) in
  write scaling_file
    Obs.Json.(
      Obj
        [
          ("benchmark", String "scaling");
          ("runs", of_int n);
          ("cores", cores);
          ("identical_totals", Bool true);
          ("series", List (List.map entry results));
        ]);
  (* Campaign-level metrics snapshot: the same for every sweep point. *)
  write obs_campaign_file
    (Obs.Export.metrics_json
       ~meta:
         Obs.Json.
           [
             ("benchmark", String "scaling"); ("runs", of_int n); ("cores", cores);
           ]
       base.Inject.Campaign.totals.Inject.Campaign.metrics);
  List.iter
    (fun (requested, r) ->
      if List.mem requested gated_jobs then begin
        if requested > 1 then
          gate
            (speedup r >= min_speedup)
            "jobs=%d throughput %.2fx of jobs=1, below floor %.2fx" requested
            (speedup r) min_speedup;
        gate
          (minor_per_run r <= max_words_per_run)
          "jobs=%d allocates %.0f minor words/run, above ceiling %.0f"
          requested (minor_per_run r) max_words_per_run
      end)
    results

(* ------------------------------------------------------------------ *)
(* Allocation attribution: where the minor words of one injection run   *)
(* go, by phase (boot/workload/injection/detection/recovery/audit).     *)
(* Checks that the phase attribution accounts for the whole-run          *)
(* [Gc.minor_words] delta (within 5%) and that the [alloc.*] counters   *)
(* merged into campaign totals are bit-identical for any --jobs value.  *)
(* Written to BENCH_alloc.json.                                          *)
(* ------------------------------------------------------------------ *)

(* Per-activity attribution: the activity loop of a NiLiHype/Register
   run (warmup plus post-trigger activities, no fault armed -- most
   register runs never detect) split by activity kind, plus the sampler
   itself. Driven from the harness exactly as [Run.run_one_activity]
   runs it ([Run.think], [System_mix.sample], [Run.execute_sampled]),
   with each sample and execute bracketed by [Gc.minor_words] and the
   monotonic clock; the hot path carries no instrumentation. The [n]
   seeds are replayed [passes] times: every pass makes the same calls
   and allocates the same words, and ns/call is the fastest pass's,
   which drops passes slowed by other load on the host. The bracket's
   own cost, timed the same way over empty brackets, is subtracted. *)
type activity_row = {
  mutable calls : int; (* this pass *)
  mutable words : float; (* this pass *)
  mutable ns : float; (* this pass *)
  mutable best_ns : float; (* per call, fastest pass so far *)
}

let new_row () = { calls = 0; words = 0.0; ns = 0.0; best_ns = infinity }

let activity_row_name : Hyper.Hypervisor.activity -> string = function
  | Timer_tick _ -> "timer_tick"
  | Context_switch _ -> "ctx_switch"
  | Device_interrupt _ -> "dev_irq"
  | Idle_poll _ -> "idle"
  | Syscall_forward _ -> "syscall"
  | Hypercall { kind; _ } -> Hyper.Hypercalls.static_name kind

let activity_attribution ~n ~passes =
  let cfg = { Inject.Run.default_config with Inject.Run.fault = Inject.Fault.Register } in
  let w = Inject.Run.prepare cfg in
  let rows = Hashtbl.create 32 in
  let row name =
    match Hashtbl.find_opt rows name with
    | Some r -> r
    | None ->
      let r = new_row () in
      Hashtbl.replace rows name r;
      r
  in
  let sample_row = row "sample" and bracket_row = new_row () in
  (* One bracketed call: the clock is read outside the words bracket,
     so a boxed clock value never lands in a row's words. *)
  let bracket f =
    let t0 = Monotonic_clock.now () in
    let w0 = Gc.minor_words () in
    let x = f () in
    let w1 = Gc.minor_words () in
    let t1 = Monotonic_clock.now () in
    (x, w1 -. w0, Int64.to_float (Int64.sub t1 t0))
  in
  let add r (_, words, ns) =
    r.calls <- r.calls + 1;
    r.words <- r.words +. words;
    r.ns <- r.ns +. ns
  in
  let all_rows () = bracket_row :: List.of_seq (Hashtbl.to_seq_values rows) in
  let activities = cfg.Inject.Run.warmup_activities + cfg.Inject.Run.post_activities in
  for _ = 1 to passes do
    List.iter
      (fun r ->
        r.calls <- 0;
        r.words <- 0.0;
        r.ns <- 0.0)
      (all_rows ());
    for i = 0 to n - 1 do
      let cfg = { cfg with Inject.Run.seed = Int64.add 90_000L (Int64.of_int i) } in
      Inject.Run.rewind w cfg;
      let st = Inject.Run.make_state cfg w.Inject.Run.w_rng w.Inject.Run.w_hv in
      Inject.Run.install_cpu_tracker st;
      for _ = 1 to activities do
        Inject.Run.think st;
        let ((a, _, _) as s) =
          bracket (fun () -> Workloads.System_mix.sample st.Inject.Run.rng st.Inject.Run.mix)
        in
        add sample_row s;
        add (row (activity_row_name a)) (bracket (fun () -> Inject.Run.execute_sampled st a));
        add bracket_row (bracket (fun () -> ()))
      done
    done;
    List.iter
      (fun r ->
        if r.calls > 0 then r.best_ns <- Float.min r.best_ns (r.ns /. float_of_int r.calls))
      (all_rows ())
  done;
  let overhead = bracket_row.best_ns in
  let order =
    [ "sample"; "timer_tick"; "ctx_switch"; "dev_irq"; "idle"; "syscall" ]
  in
  let hypercalls =
    Hashtbl.fold (fun k _ acc -> if List.mem k order then acc else k :: acc) rows []
    |> List.sort compare
  in
  let runs = float_of_int n in
  Format.printf
    "  per-activity cost, NiLiHype/Register, %d runs, fastest of %d passes (bracket \
     %.0f ns):@."
    n passes overhead;
  Format.printf "  %-22s %10s %12s %10s@." "activity" "calls/run" "words/call" "ns/call";
  let table =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt rows name with
        | None -> None
        | Some r ->
          let calls = float_of_int r.calls in
          let per_run = calls /. runs
          and words = r.words /. calls
          and ns = Float.max 0.0 (r.best_ns -. overhead) in
          Format.printf "  %-22s %10.1f %12.2f %10.0f@." name per_run words ns;
          Some
            Obs.Json.(
              Obj
                [
                  ("activity", String name);
                  ("calls_per_run", Number per_run);
                  ("minor_words_per_call", Number words);
                  ("ns_per_call", Number ns);
                ]))
      (order @ hypercalls)
  in
  Obs.Json.(
    Obj
      [
        ("config", String "NiLiHype/Register, 3AppVM, no fault armed");
        ("runs", of_int n);
        ("passes", of_int passes);
        ("bracket_ns", Number overhead);
        ("rows", List table);
      ])

let alloc_file = "BENCH_alloc.json" (* see [scaling_file] *)

let alloc opts =
  hr "Allocation attribution by run phase";
  let n = if opts.full then 1000 else 240 in
  let base_seed = 90_000L in
  let cfg = Inject.Run.default_config (* NiLiHype, failstop, 3AppVM *) in
  (* Direct single-worker loop for the agreement check: the per-run
     [alloc.*] counters are read back as plain ints after each run (the
     worker reset zeroes them at the next rewind), so the loop adds
     almost nothing outside the attributed window. *)
  let recorder = Obs.Recorder.create ~capacity:1 ~min_level:Obs.Event.Error () in
  Obs.Recorder.set_alloc_profiling recorder true;
  let w = Inject.Run.prepare ~recorder cfg in
  let phases = Obs.Recorder.alloc_phases in
  let nphases = List.length phases in
  let sums = Array.make nphases 0 in
  let run_one i =
    let seed = Int64.add base_seed (Int64.of_int i) in
    ignore (Inject.Run.execute_into w { cfg with Inject.Run.seed })
  in
  (* Warm runs: first-touch growth of long-lived structures must not
     pollute the steady-state attribution. *)
  for i = 0 to 2 do
    run_one i
  done;
  let gc_start = Gc.minor_words () in
  for i = 0 to n - 1 do
    run_one i;
    List.iteri
      (fun pi p -> sums.(pi) <- sums.(pi) + Obs.Recorder.alloc_words recorder p)
      phases
  done;
  let gc_delta = Gc.minor_words () -. gc_start in
  let attributed = float_of_int (Array.fold_left ( + ) 0 sums) in
  let agreement = if gc_delta > 0.0 then attributed /. gc_delta else 0.0 in
  let per_run words = float_of_int words /. float_of_int n in
  List.iteri
    (fun pi p ->
      Format.printf "  %-10s %10.0f words/run@."
        (Obs.Recorder.alloc_phase_name p)
        (per_run sums.(pi)))
    phases;
  Format.printf
    "  attributed %.0f of %.0f words/run (%.1f%% of the Gc.minor_words \
     delta)@."
    (attributed /. float_of_int n)
    (gc_delta /. float_of_int n)
    (100.0 *. agreement);
  gate
    (agreement >= 0.95 && agreement <= 1.05)
    "alloc: phase attribution disagrees with Gc.minor_words by >5%%";
  (* Jobs invariance: the merged [alloc.*] counters (and every other
     metric) must be bit-identical whatever the worker count. The >1
     points oversubscribe so multiple domains really run even on one
     core. *)
  let campaign jobs =
    Inject.Campaign.run
      ~label:(Printf.sprintf "alloc jobs=%d" jobs)
      ~base_seed ~jobs ~oversubscribe:(jobs > 1) ~alloc_profile:true ~n cfg
  in
  let snap r = Inject.Campaign.snapshot r.Inject.Campaign.totals in
  let seq = campaign 1 in
  same_as_jobs1 ~what:"alloc" (snap seq)
    (List.map (fun jobs -> (jobs, snap (campaign jobs))) [ 2; 4 ]);
  (* The campaign path must attribute exactly what the direct loop saw:
     same seeds, same runs, same counters. *)
  let counter name =
    match
      List.assoc_opt name
        seq.Inject.Campaign.totals.Inject.Campaign.metrics.Obs.Metrics.counters
    with
    | Some v -> v
    | None -> 0
  in
  List.iteri
    (fun pi p ->
      let name = "alloc." ^ Obs.Recorder.alloc_phase_name p in
      gate
        (counter name = sums.(pi))
        "alloc: campaign %s=%d differs from direct loop %d" name (counter name)
        sums.(pi))
    phases;
  Format.printf "alloc.* counters bit-identical for jobs=1,2,4 (n=%d)@." n;
  let activities = activity_attribution ~n ~passes:5 in
  write alloc_file
    Obs.Json.(
      Obj
        [
          ("benchmark", String "alloc");
          ("runs", of_int n);
          ("words_per_run", Number (attributed /. float_of_int n));
          ("gc_delta_words_per_run", Number (gc_delta /. float_of_int n));
          ("agreement", Number agreement);
          ("jobs_invariant", Bool true);
          ( "phases",
            Obj
              (List.mapi
                 (fun pi p ->
                   (Obs.Recorder.alloc_phase_name p, Number (per_run sums.(pi))))
                 phases) );
          ("activities", activities);
        ])

(* ------------------------------------------------------------------ *)
(* Endurance smoke: successive recoveries on ONE instance, with the     *)
(* resource-leak ledger enforcing the paper's "few pages per recovery"  *)
(* claim and the jobs=1 vs jobs=N aggregates asserted bit-identical.    *)
(* Written to BENCH_endurance.json.                                     *)
(* ------------------------------------------------------------------ *)

let endurance_file = "BENCH_endurance.json" (* see [scaling_file] *)

(* The paper's "a few pages per recovery": no recovery cycle may leak
   more pages than this. *)
let leak_budget = 8

let endurance opts =
  hr "Endurance smoke: successive failures on one hypervisor instance";
  let cycles = if opts.full then 50 else 12 in
  let scenarios = if opts.full then 20 else 6 in
  let cfg =
    {
      (* NiLiHype, failstop, 3AppVM *)
      Endure.run_cfg = Inject.Run.default_config;
      cycles;
      settle_activities = 120;
      leak_budget_pages = Some leak_budget;
    }
  in
  let measure jobs =
    Endure.run
      ~label:(Printf.sprintf "jobs=%d" jobs)
      ~base_seed:96_000L ~jobs ~scenarios cfg
  in
  let par_jobs = if opts.jobs > 1 then opts.jobs else 4 in
  let seq = measure 1 in
  let par = measure par_jobs in
  (* Determinism: the same seeds must yield the same survival curve, leak
     totals and metric snapshot whatever the worker count. *)
  same_as_jobs1 ~what:"endurance"
    (Endure.snapshot seq.Endure.totals)
    [ (par_jobs, Endure.snapshot par.Endure.totals) ];
  Format.printf "%a" Endure.pp par;
  Endure.write_json
    ~meta:
      Obs.Json.[
        ("benchmark", String "endurance");
        ("base_seed", of_int 96_000);
        ("identical_totals", Bool true);
      ]
    endurance_file par;
  Format.printf "wrote %s@." endurance_file;
  (* Leak ceiling: no recovery may leak more than the budget. *)
  let violations = par.Endure.totals.Endure.budget_violations in
  gate (violations = 0)
    "endurance: %d recovery cycle(s) exceeded the %d-page leak budget"
    violations leak_budget

(* ------------------------------------------------------------------ *)
(* Snapshot/restore benchmark: golden-image restore cost vs fresh boot  *)
(* (by previous-run outcome class) and clone fan-out throughput vs      *)
(* per-variant re-preparation, with fan-out aggregates asserted         *)
(* bit-identical across --jobs. Written to BENCH_snapshot.json.         *)
(* Gates: a fresh boot allocates <= [max_fresh_boot_words]; a boot and  *)
(* a restored run keep <= [max_live_frames] pfn frames materialized;    *)
(* restore <= 15% of fresh-boot minor words; fan-out >= 2x the          *)
(* re-prepare baseline at jobs=1.                                       *)
(* ------------------------------------------------------------------ *)

let snapshot_file = "BENCH_snapshot.json" (* see [scaling_file] *)

(* Minor words per fresh 3AppVM boot, ~15% above the measured 18,627.
   The sparse page-frame table materializes only the ~290 frames a boot
   writes; a table that builds a record per frame again (475k words)
   fails here. *)
let max_fresh_boot_words = 21_500.0

(* Materialized page frames (the pfn live stack's depth) after a fresh
   boot (measured 288) and at the end of any restored run (at most 470):
   the live stack's initial size, so a campaign run never grows it. *)
let max_live_frames = 1_024

let snapshot_bench opts =
  hr "Snapshot/restore: O(changed-state) rewind and clone fan-out";
  let base_cfg =
    {
      Inject.Run.default_config with
      Inject.Run.fault = Inject.Fault.Register;
      setup = Inject.Run.Three_appvm;
    }
  in
  (* --- Fresh boot cost: the baseline a snapshot restore replaces. --- *)
  let boot_iters = if opts.full then 30 else 10 in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to boot_iters - 1 do
    let seed = Int64.of_int (100_000 + i) in
    ignore (Sys.opaque_identity (Inject.Run.boot_state { base_cfg with Inject.Run.seed }))
  done;
  let fresh_words = (Gc.minor_words () -. w0) /. float_of_int boot_iters in
  let fresh_ns =
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int boot_iters
  in
  let live_frames hv = Hyper.Pfn.live_count hv.Hyper.Hypervisor.pfn in
  let boot_live = live_frames (Inject.Run.boot_state base_cfg).Inject.Run.hv in
  let run_live = ref 0 in
  (* --- Restore cost, bucketed by the outcome class of the run that
     dirtied the machine (the dirty set -- and hence the restore cost --
     depends on how far the run got). [died] = detected but unrecovered,
     the class that used to force a fresh boot. --- *)
  let classes = Hashtbl.create 8 in
  let record cls words ns =
    let c, w, t =
      match Hashtbl.find_opt classes cls with
      | Some (c, w, t) -> (c, w, t)
      | None -> (0, 0.0, 0.0)
    in
    Hashtbl.replace classes cls (c + 1, w +. words, t +. ns)
  in
  let total_restores = ref 0 and total_restore_words = ref 0.0 in
  let measure_restores (cfg : Inject.Run.config) n seed0 =
    let w = Inject.Run.prepare cfg in
    for i = 0 to n - 1 do
      let cfg = { cfg with Inject.Run.seed = Int64.of_int (seed0 + i) } in
      let out = Inject.Run.execute_into w cfg in
      run_live := max !run_live (live_frames w.Inject.Run.w_hv);
      let cls =
        match out with
        | Inject.Run.Detected d when not d.Inject.Run.recovered -> "died"
        | o -> Inject.Run.outcome_name o
      in
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      Inject.Run.rewind w cfg;
      let dw = Gc.minor_words () -. w0 in
      let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
      incr total_restores;
      total_restore_words := !total_restore_words +. dw;
      record cls dw dt
    done
  in
  let n_restore = if opts.full then 150 else 60 in
  (* Register faults under NiLiHype cover non-manifested, SDC and
     detected-recovered; no-recovery failstop runs cover [died]. *)
  measure_restores base_cfg n_restore 100_000;
  measure_restores
    (Inject.Vocab.config
       ~base:{ base_cfg with Inject.Run.fault = Inject.Fault.Failstop }
       Inject.Run.No_recovery)
    (n_restore / 3) 100_000;
  let restore_words = !total_restore_words /. float_of_int !total_restores in
  let restore_fraction =
    if fresh_words > 0.0 then restore_words /. fresh_words else 1.0
  in
  Format.printf "fresh boot : %10.0f minor words  %10.0f ns@." fresh_words
    fresh_ns;
  Format.printf "pfn live frames: %d after a fresh boot, <= %d after a run@."
    boot_live !run_live;
  let class_rows =
    List.sort compare
      (Hashtbl.fold (fun cls acc l -> (cls, acc) :: l) classes [])
  in
  List.iter
    (fun (cls, (c, w, t)) ->
      Format.printf
        "restore after %-15s %10.0f minor words  %10.0f ns  (n=%d)@." cls
        (w /. float_of_int c)
        (t /. float_of_int c)
        c)
    class_rows;
  Format.printf "restore overall: %.0f words = %.1f%% of a fresh boot@."
    restore_words
    (100.0 *. restore_fraction);
  (* --- Clone fan-out throughput vs per-variant re-preparation. The
     warmup-heavy config makes preparation the dominant per-run cost,
     which is the workload fan-out exists for: drive to the trigger
     point once, replay many variants. The baseline pays that warmup for
     every variant (the pre-fan-out behaviour). --- *)
  let fanout = 8 in
  let n = if opts.full then 240 else 96 in
  let fan_cfg =
    { base_cfg with Inject.Run.warmup_activities = 3600; post_activities = 150 }
  in
  let campaign ~fanout ~jobs ~oversubscribe =
    Inject.Campaign.run
      ~label:(Printf.sprintf "fanout=%d jobs=%d" fanout jobs)
      ~base_seed:120_000L ~jobs ~oversubscribe ~fanout ~n fan_cfg
  in
  let reprep = campaign ~fanout:1 ~jobs:1 ~oversubscribe:false in
  let fan = campaign ~fanout ~jobs:1 ~oversubscribe:false in
  let reprep_rps = Inject.Campaign.runs_per_sec reprep in
  let fan_rps = Inject.Campaign.runs_per_sec fan in
  let fan_speedup = if reprep_rps > 0.0 then fan_rps /. reprep_rps else 0.0 in
  Format.printf
    "re-prepare baseline: %8.1f runs/s   fan-out x%d: %8.1f runs/s  \
     (%.2fx)@."
    reprep_rps fanout fan_rps fan_speedup;
  (* --- Determinism: fan-out aggregates must be bit-identical for any
     [jobs]. The >1 points oversubscribe so multiple worker domains
     really run even on a single-core host. --- *)
  let snap r = Inject.Campaign.snapshot r.Inject.Campaign.totals in
  same_as_jobs1 ~what:"snapshot: fanout" (snap fan)
    (List.map
       (fun jobs -> (jobs, snap (campaign ~fanout ~jobs ~oversubscribe:true)))
       [ 2; 4 ]);
  Format.printf "fan-out totals bit-identical for jobs=1,2,4 (n=%d)@." n;
  write snapshot_file
    Obs.Json.(
      Obj
        [
          ("benchmark", String "snapshot");
          ("fresh_boot_minor_words", Number fresh_words);
          ("fresh_boot_ns", Number fresh_ns);
          ( "pfn_live_frames",
            Obj
              [ ("fresh_boot", of_int boot_live); ("after_restored_run", of_int !run_live) ]
          );
          ("restore_minor_words", Number restore_words);
          ("restore_fraction_of_fresh_boot", Number restore_fraction);
          ( "restore_by_outcome",
            Obj
              (List.map
                 (fun (cls, (c, w, t)) ->
                   ( cls,
                     Obj
                       [
                         ("minor_words", Number (w /. float_of_int c));
                         ("ns", Number (t /. float_of_int c));
                         ("runs", of_int c);
                       ] ))
                 class_rows) );
          ("fanout", of_int fanout);
          ("fanout_runs", of_int n);
          ("reprepare_runs_per_sec", Number reprep_rps);
          ("fanout_runs_per_sec", Number fan_rps);
          ("fanout_speedup", Number fan_speedup);
          ("identical_totals", Bool true);
        ]);
  gate (fresh_words <= max_fresh_boot_words)
    "a fresh boot allocates %.0f minor words (ceiling %.0f)" fresh_words
    max_fresh_boot_words;
  gate (boot_live <= max_live_frames && !run_live <= max_live_frames)
    "pfn live frames %d after a boot and %d after a run (ceiling %d)" boot_live
    !run_live max_live_frames;
  gate (restore_fraction <= 0.15)
    "restore costs %.1f%% of a fresh boot in minor words (ceiling 15%%)"
    (100.0 *. restore_fraction);
  gate (fan_speedup >= 2.0)
    "fan-out throughput %.2fx of the re-prepare baseline (floor 2.00x)"
    fan_speedup

(* ------------------------------------------------------------------ *)
(* Observability overhead: the flight recorder is always on and          *)
(* postmortem capture is lazy, so a campaign with postmortems enabled    *)
(* must not be measurably slower than one without. Gates the median     *)
(* runs/s deficit of interleaved off/on pairs at [max_obs_overhead],     *)
(* reports minor words and trace events per run as                       *)
(* deterministic proxies, asserts triage output is bit-identical across  *)
(* --jobs and --fanout splits, and re-runs an exemplar's one-line repro  *)
(* to confirm it reproduces the failure signature. Written to            *)
(* BENCH_obs.json (+ TRIAGE_campaign.json).                              *)
(* ------------------------------------------------------------------ *)

(* See [scaling_file]. The triage file is the no-recovery campaign's,
   validated by nlh_trace_check in @bench-smoke. *)
let obs_file = "BENCH_obs.json"
let triage_file = "TRIAGE_campaign.json"

(* Median runs/s deficit of postmortems-on vs off, in %: capture is lazy
   and the flight recorder always on, so enabling postmortems must stay
   within host noise. *)
let max_obs_overhead = 5.0

let obs_overhead opts =
  hr "Observability overhead: flight recorder + lazy postmortem capture";
  let n = if opts.full then 1000 else 240 in
  let cfg = Inject.Run.default_config (* NiLiHype, failstop, 3AppVM *) in
  let campaign ?(jobs = 1) ?(oversubscribe = false) ?(fanout = 1)
      ~postmortems label =
    Inject.Campaign.run ~label ~base_seed:90_000L ~jobs ~oversubscribe ~fanout
      ~postmortems ~n cfg
  in
  (* Campaign results are deterministic; only wall clock varies, and on a
     shared host it drifts by more than the effect measured here. So the
     timing is many short off/on pairs run back to back, each side on its
     own pre-booted machine, half the pairs running each side first
     (whichever runs second in a pair reads ~5% differently). *)
  let pairs = 150 and pair_runs = 16 in
  let pool_off = Inject.Campaign.prepare_pool ~postmortems:false ~jobs:1 cfg in
  let pool_on = Inject.Campaign.prepare_pool ~postmortems:true ~jobs:1 cfg in
  let timed ~postmortems i =
    Inject.Campaign.runs_per_sec
      (Inject.Campaign.run ~label:(Printf.sprintf "pair #%d" i)
         ~base_seed:(Int64.add 90_000L (Int64.of_int (i * pair_runs)))
         ~postmortems ~n:pair_runs
         ~pool:(if postmortems then pool_on else pool_off)
         cfg)
  in
  let paired =
    List.init pairs (fun i ->
        if i mod 2 = 0 then
          let b = timed ~postmortems:false i in
          (b, timed ~postmortems:true i)
        else
          let p = timed ~postmortems:true i in
          (timed ~postmortems:false i, p))
  in
  let quantile q xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(int_of_float (q *. float_of_int (Array.length a - 1) +. 0.5))
  in
  let ratios = List.map (fun (b, p) -> p /. b) paired in
  let ratio = quantile 0.5 ratios in
  let q1 = quantile 0.25 ratios and q3 = quantile 0.75 ratios in
  let overhead_pct = 100.0 *. (1.0 -. ratio) in
  let base_rps = quantile 0.5 (List.map fst paired) in
  let pm_rps = quantile 0.5 (List.map snd paired) in
  (* One whole campaign per side, for the checks below and for minor
     words per run comparable to the scaling sweep. *)
  let base = campaign ~postmortems:false "postmortems off" in
  let pm = campaign ~postmortems:true "postmortems on" in
  let words_per_run r = r.Inject.Campaign.minor_words /. float_of_int n in
  (* Trace events the recorder kept per run, replayed on a worker with
     each side's recorder shape. *)
  let events_per_run ~postmortems =
    let recorder =
      Inject.Campaign.make_worker_recorder ~alloc_profile:false ~postmortems ()
    in
    let w = Inject.Run.prepare ~recorder cfg in
    let total = ref 0 in
    for i = 0 to n - 1 do
      ignore
        (Inject.Run.execute_into w
           { cfg with Inject.Run.seed = Int64.add 90_000L (Int64.of_int i) });
      let t = recorder.Obs.Recorder.trace in
      total := !total + Obs.Trace.size t + Obs.Trace.dropped t
    done;
    float_of_int !total /. float_of_int n
  in
  let base_events = events_per_run ~postmortems:false in
  let pm_events = events_per_run ~postmortems:true in
  Format.printf
    "postmortems off: %8.1f runs/s   on: %8.1f runs/s   (medians of %d \
     interleaved %d-run pairs)@."
    base_rps pm_rps pairs pair_runs;
  Format.printf
    "median paired on/off ratio %.4f (quartiles %.4f..%.4f): overhead %+.1f%%@."
    ratio q1 q3 overhead_pct;
  Format.printf
    "minor words/run off %.0f on %.0f; trace events/run off %.2f on %.2f@."
    (words_per_run base) (words_per_run pm) base_events pm_events;
  (* Capture must not perturb results: everything except the triage table
     itself is bit-identical with postmortems on. *)
  let strip s = { s with Inject.Campaign.s_triage = [] } in
  gate
    (strip (Inject.Campaign.snapshot base.Inject.Campaign.totals)
    = strip (Inject.Campaign.snapshot pm.Inject.Campaign.totals))
    "obs_overhead: postmortem capture changed campaign results";
  (* Triage determinism: same table for any worker/fan-out split. The
     jobs>1 points oversubscribe so several domains run even on one
     core; the byte-level comparison covers exemplar bundles too. *)
  let triage_json r =
    Obs.Json.to_string
      (Obs.Postmortem.Triage.to_json
         r.Inject.Campaign.totals.Inject.Campaign.triage)
  in
  let triage ?(fanout = 1) jobs =
    triage_json
      (campaign ~fanout ~jobs ~oversubscribe:(jobs > 1) ~postmortems:true
         (Printf.sprintf "triage fanout=%d jobs=%d" fanout jobs))
  in
  same_as_jobs1 ~what:"obs_overhead: triage" (triage_json pm)
    [ (2, triage 2); (4, triage 4) ];
  same_as_jobs1 ~what:"obs_overhead: fan-out triage" (triage ~fanout:4 1)
    [ (4, triage ~fanout:4 4) ];
  Format.printf "triage bit-identical for jobs=1,2,4 and fanout=4 splits@.";
  (* Repro fidelity: a no-recovery campaign must emit bundles, and an
     exemplar's one-line repro (--runs 1 --seed S) must land in the same
     failure signature when re-run. *)
  let dead_cfg = Inject.Vocab.config ~base:cfg Inject.Run.No_recovery in
  let dead =
    Inject.Campaign.run ~label:"no-recovery" ~base_seed:90_000L
      ~postmortems:true ~n:(min n 24) dead_cfg
  in
  let dead_triage = dead.Inject.Campaign.totals.Inject.Campaign.triage in
  let exemplars =
    List.filter_map
      (fun (key, e) ->
        Option.map
          (fun (seed, _) -> (key, seed))
          e.Obs.Postmortem.Triage.e_exemplar)
      (Obs.Postmortem.Triage.snapshot dead_triage)
  in
  gate (exemplars <> [])
    "obs_overhead: no postmortem bundle from a died campaign";
  List.iter
    (fun (key, seed) ->
      let rerun =
        Inject.Campaign.run ~label:"repro" ~base_seed:seed ~postmortems:true
          ~n:1 dead_cfg
      in
      let keys =
        List.map fst
          (Obs.Postmortem.Triage.snapshot
             rerun.Inject.Campaign.totals.Inject.Campaign.triage)
      in
      gate (keys = [ key ]) "obs_overhead: repro of seed %Ld gave %s, want %s"
        seed
        (String.concat "," keys)
        key)
    exemplars;
  Format.printf
    "repro fidelity: %d exemplar seed(s) re-ran to their own signature@."
    (List.length exemplars);
  write triage_file
    (Obs.Postmortem.Triage.to_json
       ~meta:
         Obs.Json.[
           ("benchmark", String "obs_overhead");
           ("runs", of_int (min n 24));
           ("base_seed", of_int 90_000);
         ]
       dead_triage);
  write obs_file
    Obs.Json.(
      Obj
        [
          ("benchmark", String "obs_overhead");
          ("runs", of_int n);
          ("pairs", of_int pairs);
          ("runs_per_pair_side", of_int pair_runs);
          ("baseline_runs_per_sec", Number base_rps);
          ("postmortem_runs_per_sec", Number pm_rps);
          ("paired_ratio_median", Number ratio);
          ("paired_ratio_q1", Number q1);
          ("paired_ratio_q3", Number q3);
          ("overhead_pct", Number overhead_pct);
          ("overhead_ceiling_pct", Number max_obs_overhead);
          ("baseline_minor_words_per_run", Number (words_per_run base));
          ("postmortem_minor_words_per_run", Number (words_per_run pm));
          ("baseline_trace_events_per_run", Number base_events);
          ("postmortem_trace_events_per_run", Number pm_events);
          ("identical_results", Bool true);
          ("triage_jobs_invariant", Bool true);
          ("triage_fanout_invariant", Bool true);
          ("repro_signatures_verified", of_int (List.length exemplars));
        ]);
  gate
    (overhead_pct <= max_obs_overhead)
    "postmortem capture costs %.1f%% runs/s (median of %d pairs; ceiling \
     %.1f%%)"
    overhead_pct pairs max_obs_overhead

(* ------------------------------------------------------------------ *)
(* Fuzz: coverage-guided fault-space search vs uniform-grid sampling    *)
(* at an equal run budget. The grid baseline spends the same N runs     *)
(* evenly across the four fault kinds with consecutive seeds (the       *)
(* campaign strategy every prior PR used); the fuzzer spends N mutants  *)
(* steered by Obs.Coverage novelty. Gates: (a) the fuzzer discovers     *)
(* strictly more distinct triage signatures than the grid, and (b)      *)
(* every discovered signature's one-line repro replays to a             *)
(* byte-identical triage entry (run twice, compared as JSON).           *)
(* BENCH_fuzz.json.                                                     *)
(* ------------------------------------------------------------------ *)

let fuzz_file = "BENCH_fuzz.json" (* see [scaling_file] *)

let fuzz_bench opts =
  hr "Fuzz: coverage-guided search vs uniform-grid sampling";
  let n = if opts.full then 1024 else 192 in
  let base = Inject.Run.default_config (* NiLiHype, 3AppVM *) in
  (* Grid baseline: N/4 runs per fault kind, consecutive seeds, same
     mechanism and setup. Signatures = union over the four triages. *)
  let kinds =
    [ Inject.Fault.Failstop; Inject.Fault.Register; Inject.Fault.Code;
      Inject.Fault.Data ]
  in
  let per_kind = n / List.length kinds in
  let grid_t0 = Unix.gettimeofday () in
  let grid_sigs =
    List.concat_map
      (fun fault ->
        let r =
          Inject.Campaign.run
            ~label:(Printf.sprintf "grid %s" (Inject.Fault.name fault))
            ~base_seed:9_000L ~jobs:opts.jobs ~postmortems:true ~n:per_kind
            { base with Inject.Run.fault }
        in
        List.map fst
          (Obs.Postmortem.Triage.snapshot
             r.Inject.Campaign.totals.Inject.Campaign.triage))
      kinds
    |> List.sort_uniq String.compare
  in
  let grid_secs = Unix.gettimeofday () -. grid_t0 in
  (* Fuzzer: same budget, same base seed, same mechanism. *)
  let fcfg =
    {
      (Fuzz.Session.default_config ~base_seed:9_000L) with
      Fuzz.Session.f_base = base;
      f_runs = per_kind * List.length kinds;
      f_batch = max 8 (n / 8);
      f_jobs = opts.jobs;
    }
  in
  let fuzz_t0 = Unix.gettimeofday () in
  let t = Fuzz.Session.explore fcfg in
  let fuzz_secs = Unix.gettimeofday () -. fuzz_t0 in
  let fuzz_sigs = Fuzz.Corpus.signatures t.Fuzz.Session.s_corpus in
  Format.printf
    "grid: %d runs -> %d signatures (%.1fs)   fuzz: %d runs -> %d signatures \
     (%.1fs), %d coverage points, %d corpus entries@."
    (per_kind * List.length kinds)
    (List.length grid_sigs) grid_secs t.Fuzz.Session.s_evaluated
    (List.length fuzz_sigs) fuzz_secs
    (Fuzz.Corpus.n_points t.Fuzz.Session.s_corpus)
    (List.length (Fuzz.Corpus.entries t.Fuzz.Session.s_corpus));
  (* Repro fidelity: every discovered signature's exemplar must replay
     -- twice -- to the byte-identical triage entry recorded for it. *)
  let entry_json (r : Fuzz.Session.replay_result) =
    let tr = Obs.Postmortem.Triage.create () in
    (match Obs.Signature.of_key r.Fuzz.Session.r_signature with
    | Some sg ->
      Obs.Postmortem.Triage.record ?bundle:r.Fuzz.Session.r_bundle tr sg
        ~seed:r.Fuzz.Session.r_point.Fuzz.Input.p_seed
    | None -> ());
    Obs.Json.to_string (Obs.Postmortem.Triage.to_json tr)
  in
  let exemplars = Fuzz.Session.exemplars t in
  List.iter
    (fun (sigkey, (e : Fuzz.Corpus.entry)) ->
      let a = Fuzz.Session.replay fcfg e.Fuzz.Corpus.en_trace in
      let b = Fuzz.Session.replay fcfg e.Fuzz.Corpus.en_trace in
      gate
        (a.Fuzz.Session.r_signature = sigkey)
        "fuzz: repro of %s replayed to %s" sigkey a.Fuzz.Session.r_signature;
      gate
        (a.Fuzz.Session.r_outcome = e.Fuzz.Corpus.en_outcome)
        "fuzz: repro of %s changed outcome" sigkey;
      gate
        (entry_json a = entry_json b)
        "fuzz: repro of %s is not byte-stable" sigkey)
    exemplars;
  Format.printf "repro fidelity: %d signature(s) replayed byte-identically@."
    (List.length exemplars);
  let coverage_wins = List.length fuzz_sigs > List.length grid_sigs in
  write fuzz_file
    Obs.Json.(
      Obj
        [
          ("benchmark", String "fuzz");
          ("runs", of_int (per_kind * List.length kinds));
          ("grid_signatures", of_int (List.length grid_sigs));
          ("grid_secs", Number grid_secs);
          ("fuzz_signatures", of_int (List.length fuzz_sigs));
          ("fuzz_secs", Number fuzz_secs);
          ("coverage_points", of_int (Fuzz.Corpus.n_points t.Fuzz.Session.s_corpus));
          ( "corpus_entries",
            of_int (List.length (Fuzz.Corpus.entries t.Fuzz.Session.s_corpus)) );
          ("replayed_signatures", of_int (List.length exemplars));
          ("coverage_beats_grid", Bool coverage_wins);
        ]);
  gate coverage_wins
    "fuzzer found %d signature(s), grid found %d at the same budget"
    (List.length fuzz_sigs) (List.length grid_sigs);
  gate (exemplars <> []) "fuzzer discovered no signatures to replay"

(* ------------------------------------------------------------------ *)
(* Soak: million-run-scale streaming campaigns. Gates (a) constant      *)
(* memory -- top-heap growth from a 10^3-run campaign to the 10^5+ soak *)
(* must stay under [max_heap_growth] -- and (b) kill -> resume          *)
(* determinism: a campaign stopped mid-flight and resumed with a        *)
(* different --jobs must reproduce the uninterrupted aggregate exactly, *)
(* with a byte-identical final checkpoint file. BENCH_soak.json.        *)
(* ------------------------------------------------------------------ *)

let soak_file = "BENCH_soak.json" (* see [scaling_file] *)

(* Soak campaign size: two orders of magnitude past the 10^3-run
   baseline, enough for a per-run leak to show in the live heap. *)
let soak_runs = 100_000

(* Live-heap growth ceiling from the 10^3-run campaign to the soak, in
   %: streaming aggregation keeps memory constant in the run count. *)
let max_heap_growth = 15.0

let soak opts =
  hr "Soak: streaming aggregation, checkpoint/resume, machine pools";
  let n = soak_runs and jobs = opts.jobs in
  let cfg = Inject.Run.default_config (* NiLiHype, failstop, 3AppVM *) in
  (* Machines for every worker slot boot once, up front, and serve the
     small run, the soak, and the resume drills below. *)
  let pool = Inject.Campaign.prepare_pool ~jobs cfg in
  let ck path =
    {
      Inject.Campaign.ck_path = path;
      ck_every = 16;
      ck_resume = false;
      ck_stop_after = None;
    }
  in
  (* The top-heap high-water mark only ratchets up, and the major heap
     keeps expanding toward its steady-state pacing for well past 10^3
     runs no matter how small the live set is. Warm the collector to
     steady state first so the small/soak comparison below measures
     streaming-aggregation growth, not GC ramp-up. *)
  let n_warm = min 20_000 (max 2_000 n) in
  ignore
    (Inject.Campaign.run ~label:"soak warmup" ~base_seed:110_000L ~jobs ~pool
       ~n:n_warm cfg);
  (* Small streaming campaign next: establishes the top-heap high-water
     mark (a process-global maximum) that the soak must not materially
     exceed -- THE constant-memory claim, measured end to end. *)
  let small =
    Inject.Campaign.run ~label:"soak small" ~base_seed:120_000L ~jobs ~pool
      ~checkpoint:(ck "SOAK_small_checkpoint.json") ~n:1_000 cfg
  in
  (* The constant-memory gate compares the *live* heap -- what actually
     survives a full major collection -- between the 10^3 campaign and
     the soak. The top-heap high-water mark from [Gc.quick_stat] is
     reported alongside, but only informationally: it ratchets up with
     the collector's pacing for hundreds of thousands of runs even when
     the live set is flat, so gating on it measures GC heuristics, not
     the streaming accumulator. *)
  let live_heap () =
    (* Twice: the first finishes the in-flight incremental cycle, the
       second collects everything that died during it. *)
    Gc.full_major ();
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let live_small = live_heap () in
  let heap_small = (Gc.quick_stat ()).Gc.top_heap_words in
  Format.printf "10^3 streaming: %7.1f runs/s, live %d words, top heap %d@."
    (Inject.Campaign.runs_per_sec small)
    live_small heap_small;
  let big =
    Inject.Campaign.run ~label:"soak" ~base_seed:120_000L ~jobs ~pool
      ~checkpoint:(ck "SOAK_checkpoint.json") ~n cfg
  in
  let live_big = live_heap () in
  let heap_big = (Gc.quick_stat ()).Gc.top_heap_words in
  (* Keep the pool reachable past the second measurement; its booted
     machines dominate the live set, and letting the optimizer treat it
     as dead after its last campaign would make the two live-heap
     samples measure different worlds. *)
  ignore (Sys.opaque_identity pool);
  let rps = Inject.Campaign.runs_per_sec big in
  let words_per_run =
    big.Inject.Campaign.minor_words /. float_of_int (max 1 n)
  in
  let growth_pct =
    100.0
    *. float_of_int (live_big - live_small)
    /. float_of_int (max 1 live_small)
  in
  Format.printf
    "%d-run soak: %7.1f runs/s, %.0f minor words/run, live %d words \
     (%+.2f%% vs 10^3), top heap %d@."
    n rps words_per_run live_big growth_pct heap_big;
  (* Kill -> resume determinism drill, small enough to run thrice. A
     20-chunk prefix simulates the kill; the resume runs with a
     different --jobs (oversubscribed so several domains actually run
     on this host) and must land on the uninterrupted aggregate with a
     byte-identical checkpoint. *)
  let drill_n = 4_000 in
  let drill ~path ~stop_after ~resume ~jobs ~oversubscribe =
    (* No pool here: the resume runs with more jobs than the pool has
       slots, and extra workers booting their own machine is exactly the
       add-workers-on-resume scenario. *)
    Inject.Campaign.run ~label:"resume drill" ~base_seed:130_000L ~jobs
      ~oversubscribe ~chunk:64
      ~checkpoint:
        {
          Inject.Campaign.ck_path = path;
          ck_every = 4;
          ck_resume = resume;
          ck_stop_after = stop_after;
        }
      ~n:drill_n cfg
  in
  let killed =
    drill ~path:"SOAK_resume.json" ~stop_after:(Some 20) ~resume:false ~jobs:1
      ~oversubscribe:false
  in
  Format.printf "killed after %d/%d runs; resuming with jobs=2@."
    killed.Inject.Campaign.totals.Inject.Campaign.runs drill_n;
  let resumed =
    drill ~path:"SOAK_resume.json" ~stop_after:None ~resume:true ~jobs:2
      ~oversubscribe:true
  in
  let uninterrupted =
    drill ~path:"SOAK_uninterrupted.json" ~stop_after:None ~resume:false
      ~jobs:1 ~oversubscribe:false
  in
  let resume_identical =
    Inject.Campaign.snapshot resumed.Inject.Campaign.totals
    = Inject.Campaign.snapshot uninterrupted.Inject.Campaign.totals
  in
  (* Both files come from the one printer, so equal values mean equal
     bytes. *)
  let bytes_identical =
    match
      (Obs.Json.read_file "SOAK_resume.json",
       Obs.Json.read_file "SOAK_uninterrupted.json")
    with
    | Ok a, Ok b -> a = b
    | _ -> false
  in
  Format.printf "resume aggregate identical: %b, checkpoint bytes identical: %b@."
    resume_identical bytes_identical;
  write soak_file
    Obs.Json.(
      Obj
        [
          ("benchmark", String "soak");
          ("runs", of_int n);
          ("jobs", of_int big.Inject.Campaign.jobs);
          ("seconds", Number big.Inject.Campaign.wall_seconds);
          ("runs_per_sec", Number rps);
          ("minor_words_per_run", Number words_per_run);
          ("live_words_small", of_int live_small);
          ("live_words_soak", of_int live_big);
          ("top_heap_words_small", of_int heap_small);
          ("top_heap_words_soak", of_int heap_big);
          ("max_heap_growth_pct", Number growth_pct);
          ("max_heap_growth_ceiling_pct", Number max_heap_growth);
          ("resume_identical", Bool resume_identical);
          ("checkpoint_bytes_identical", Bool bytes_identical);
        ]);
  gate
    (growth_pct <= max_heap_growth)
    "live heap grew %.2f%% from 10^3 to %d runs (ceiling %.1f%%)" growth_pct n
    max_heap_growth;
  gate
    (resume_identical && bytes_identical)
    "kill -> resume did not reproduce the aggregate"

(* ------------------------------------------------------------------ *)
(* Fleet: hundreds of tenant VMs, request latency through a recovery    *)
(* event, per mechanism. Gates (a) the incremental microreset: its mean *)
(* recovery latency must be at most [max_incremental_frac] of the       *)
(* full-scan's at the paper's reference geometry (2 Mi frames), its     *)
(* request p99 through the event must be strictly below the full        *)
(* scan's, and no request may miss the SLO; and (b) jobs invariance:    *)
(* every mechanism's merged aggregate must be bit-identical when the    *)
(* trials are re-run on a different, oversubscribed worker count.       *)
(* BENCH_fleet.json.                                                    *)
(* ------------------------------------------------------------------ *)

let fleet_file = "BENCH_fleet.json" (* see [scaling_file] *)

(* Incremental microreset mean recovery latency ceiling, as a fraction
   of the full scan's at the paper's reference geometry. *)
let max_incremental_frac = 0.15

let fleet_bench opts =
  hr "Fleet: tenant request latency through a recovery event";
  let cfg =
    if opts.full then Fleet.default_config
    else { Fleet.default_config with Fleet.tenants = 96; trials = 2 }
  in
  let j = opts.jobs in
  Format.printf "%d tenants, %d trials/mechanism, %d victims, jobs=%d@.@."
    cfg.Fleet.tenants cfg.Fleet.trials cfg.Fleet.victims j;
  let results =
    List.map
      (fun mech ->
        let r = Fleet.run ~jobs:j cfg mech in
        Format.printf "  %a" Fleet.pp r;
        r)
      Fleet.all_mechanisms
  in
  let find mech =
    List.find (fun (r : Fleet.result) -> r.Fleet.mech = mech) results
  in
  let full_r = find Fleet.Serial_full in
  let incr_r = find Fleet.Serial_incremental in
  let full_mean = Fleet.recovery_mean_ns full_r in
  let incr_mean = Fleet.recovery_mean_ns incr_r in
  let frac = float_of_int incr_mean /. float_of_int full_mean in
  let p99_full = Fleet.request_quantile full_r 0.99 in
  let p99_incr = Fleet.request_quantile incr_r 0.99 in
  let incr_violations = Fleet.slo_violations incr_r in
  Format.printf
    "@.incremental/full recovery mean: %a / %a = %.3f (ceiling %.2f)@."
    Sim.Time.pp_ms incr_mean Sim.Time.pp_ms full_mean frac
    max_incremental_frac;
  Format.printf
    "request p99 through the event: serial-incremental %a vs serial-full %a@."
    Sim.Time.pp_ms p99_incr Sim.Time.pp_ms p99_full;
  (* Jobs invariance, the adversarial way: different worker count,
     oversubscribed scheduling. *)
  let invariant =
    List.for_all
      (fun (r : Fleet.result) ->
        let r' = Fleet.run ~jobs:(j + 1) ~oversubscribe:true cfg r.Fleet.mech in
        r'.Fleet.metrics = r.Fleet.metrics)
      results
  in
  Format.printf "aggregates jobs-invariant (jobs=%d vs %d): %b@." j (j + 1)
    invariant;
  Fleet.write_json fleet_file cfg results;
  Format.printf "wrote %s@." fleet_file;
  gate
    (frac <= max_incremental_frac)
    "incremental microreset is %.3f of the full scan (ceiling %.2f)" frac
    max_incremental_frac;
  gate (p99_incr < p99_full)
    "incremental request p99 (%a) not below the full scan's (%a)"
    Sim.Time.pp_ms p99_incr Sim.Time.pp_ms p99_full;
  gate (incr_violations = 0)
    "incremental recovery missed the SLO on %d requests" incr_violations;
  gate invariant "fleet aggregates depend on --jobs"

(* The harness: every section once, in this order. With no names given,
   the paper sections run; perf sections run only when named. *)
type kind = Paper | Perf

let sections =
  [
    ("table1", Paper, table1);
    ("figure2", Paper, figure2);
    ("outcomes", Paper, outcomes);
    ("table2", Paper, table2);
    ("table3", Paper, table3);
    ("figure3", Paper, figure3);
    ("table4", Paper, table4);
    ("latency", Paper, latency_service);
    ("ablation", Paper, ablation);
    ("ablation_logging", Paper, ablation_logging);
    ("multivcpu", Paper, multivcpu);
    ("micro", Paper, microbench);
    ("scaling", Perf, scaling);
    ("endurance", Perf, endurance);
    ("alloc", Perf, alloc);
    ("snapshot", Perf, snapshot_bench);
    ("obs_overhead", Perf, obs_overhead);
    ("fuzz", Perf, fuzz_bench);
    ("soak", Perf, soak);
    ("fleet", Perf, fleet_bench);
  ]

let () =
  let full = ref false and jobs = ref 1 and names = ref [] in
  let name (n, _, _) = n in
  Arg.parse
    [
      ("--full", Arg.Set full, " paper-sized campaigns");
      Inject.Vocab.jobs_spec jobs
        " parallel worker domains for campaigns (0 = one per core; default 1)";
    ]
    (fun s ->
      if not (List.exists (fun sec -> name sec = s) sections) then
        raise (Arg.Bad ("unknown section " ^ s));
      names := s :: !names)
    ("bench/main.exe [--full] [--jobs N] [section...]\nsections: "
    ^ String.concat " " (List.map name sections));
  let opts = { full = !full; jobs = Inject.Vocab.jobs !jobs } in
  List.iter
    (fun (name, kind, run) ->
      if if !names = [] then kind = Paper else List.mem name !names then begin
        if kind = Perf then tune_gc_for_campaigns ();
        run opts
      end)
    sections;
  Format.printf "@.done.@."
