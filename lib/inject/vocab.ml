(** The run vocabulary: the one place that knows the command-line names
    of the paper's experiment axes -- recovery mechanism, fault type and
    target setup -- and which normal-operation hypervisor config each
    mechanism needs. Every binary parses its [--mech]/[--fault]/[--setup]
    flags through these tables, and every one-line repro and resume
    fingerprint prints through these printers, so a saved repro or
    checkpoint names exactly the config it replays.

    The printers are plain matches rather than table lookups: with
    postmortems on, a campaign prints a repro line for every run, and a
    lookup would add allocation there. The round trip between tables and
    printers is test-enforced. *)

let full = Recovery.Enhancement.full_set

let recovery_mechs =
  [
    ("nilihype", Run.Mech (Recovery.Engine.Nilihype, full));
    ("rehype", Run.Mech (Recovery.Engine.Rehype, full));
  ]

let mechs = recovery_mechs @ [ ("none", Run.No_recovery) ]

let faults =
  [
    ("failstop", Fault.Failstop);
    ("register", Fault.Register);
    ("code", Fault.Code);
    ("data", Fault.Data);
  ]

let setups =
  [
    ("1appvm", Run.One_appvm Workloads.Workload.Unixbench);
    ("3appvm", Run.Three_appvm);
  ]

let mech_name = function
  | Run.No_recovery -> "none"
  | Run.Mech (Recovery.Engine.Nilihype, _) -> "nilihype"
  | Run.Mech (Recovery.Engine.Rehype, _) -> "rehype"

let fault_name = function
  | Fault.Failstop -> "failstop"
  | Fault.Register -> "register"
  | Fault.Code -> "code"
  | Fault.Data -> "data"

let setup_name = function
  | Run.One_appvm _ -> "1appvm"
  | Run.Three_appvm -> "3appvm"

(* Display forms, as reports print them: "NiLiHype", and a campaign
   label such as "NiLiHype/Register" or "none/Failstop". *)
let mech_label = function
  | Run.No_recovery -> "none"
  | Run.Mech (m, _) -> Recovery.Engine.mechanism_name m

let label mech fault = mech_label mech ^ "/" ^ Fault.name fault

(* Recovery needs support during normal operation (logging, reordering);
   without a recovery mechanism the hypervisor runs stock. *)
let hv_config = function
  | Run.No_recovery -> Hyper.Config.stock
  | Run.Mech (m, _) -> Recovery.Engine.config m

let config ?(base = Run.default_config) mech =
  { base with Run.mech; hv_config = hv_config mech }

(* [--jobs 0] means one worker domain per core. *)
let jobs n = if n > 0 then n else Pool.default_jobs ()

(* --- Arg specs ----------------------------------------------------- *)

let symbol table set =
  Arg.Symbol (List.map fst table, fun s -> set (List.assoc s table))

let mech_spec ?(table = mechs) r =
  ("--mech", symbol table (( := ) r), " recovery mechanism")

let fault_spec r = ("--fault", symbol faults (( := ) r), " fault type")
let setup_spec r = ("--setup", symbol setups (( := ) r), " target system setup")

let jobs_spec r doc =
  ( "--jobs",
    Arg.Int
      (fun j ->
        if j < 0 then raise (Arg.Bad "--jobs must be >= 0 (0 = one per core)");
        r := j),
    doc )

(* Every tool's [--seed], documented with the tool's own default. *)
let seed_spec r =
  ("--seed", Arg.Set_int r, Printf.sprintf " base seed (default %d)" !r)

(* The anonymous-argument handler of a tool that takes none. *)
let no_positional a = raise (Arg.Bad ("unexpected argument " ^ a))
