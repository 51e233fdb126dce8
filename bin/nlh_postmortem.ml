(* Postmortem reader: human-oriented rendering of the triage artifacts.

   Given an nlh-triage/1 document, prints the failure-signature table --
   count, failing seeds, and the exemplar's one-line repro -- sorted by
   descending count so the dominant failure mode tops the list. Given an
   nlh-postmortem/1 bundle, pretty-prints the whole forensic record:
   causal timeline, first corrupted-structure touch, recovery phases,
   flight-ring tails and the resource-ledger diff. Accepts several files
   and dispatches per file on the "schema" member. *)

open Obs.Json

let die fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt
let named_ns key v =
  List.map
    (fun e -> (string (field "name" e), int (field "ns" e)))
    (list (field key v))

(* --- Bundle rendering ------------------------------------------------ *)

let print_bundle b =
  Printf.printf "  signature: %s\n" (string (field "signature" b));
  Printf.printf "  outcome:   %s\n" (string (field "outcome" b));
  Printf.printf "  seed:      %d\n" (int (field "seed" b));
  Printf.printf "  repro:     %s\n" (string (field "repro" b));
  Printf.printf "  config:   ";
  List.iter
    (fun (k, v) -> Printf.printf " %s=%s" k (string v))
    (obj (field "config" b));
  print_newline ();
  let timeline = list (field "timeline" b) in
  if timeline <> [] then begin
    Printf.printf "  timeline (%d events):\n" (List.length timeline);
    List.iter
      (fun e ->
        Printf.printf "    %10d ns  %-9s %s\n"
          (int (field "ns" e))
          (string (field "label" e))
          (string (field "event" e)))
      timeline
  end;
  (match field "first_touch" b with
  | Null -> ()
  | ft ->
    Printf.printf "  first touch after injection: %s at %d ns\n"
      (string (field "name" ft))
      (int (field "ns" ft)));
  let section title rows =
    if rows <> [] then begin
      Printf.printf "  %s:\n" title;
      List.iter (fun (n, ns) -> Printf.printf "    %-28s %10d ns\n" n ns) rows
    end
  in
  section "recovery phases" (named_ns "recovery_phases" b);
  section "hypercall tail" (named_ns "hypercalls" b);
  section "journal tail" (named_ns "journal_tail" b);
  match int_map (field "ledger_diff" b) with
  | [] -> ()
  | diff ->
    Printf.printf "  ledger diff vs boot:\n";
    List.iter (fun (k, v) -> Printf.printf "    %-28s %+d\n" k v) diff

(* --- Triage rendering ------------------------------------------------ *)

let print_triage path root =
  let sigs = list (field "signatures" root) in
  Printf.printf "%s: %d failure(s) across %d signature(s)\n" path
    (int (field "total" root)) (List.length sigs);
  let by_count =
    (* Descending count, key as the deterministic tie-break. *)
    List.stable_sort
      (fun a b ->
        let ca = int (field "count" a) and cb = int (field "count" b) in
        if ca <> cb then compare cb ca
        else
          String.compare
            (string (field "signature" a))
            (string (field "signature" b)))
      sigs
  in
  List.iter
    (fun e ->
      Printf.printf "\n%4dx %s\n"
        (int (field "count" e))
        (string (field "signature" e));
      Printf.printf "      seeds:%s\n"
        (String.concat ""
           (List.map
              (fun s -> Printf.sprintf " %d" (int s))
              (list (field "seeds" e))));
      match field "exemplar" e with
      | Null -> ()
      | b -> Printf.printf "      repro: %s\n" (string (field "repro" b)))
    by_count

let () =
  if Array.length Sys.argv < 2 then
    die "usage: nlh_postmortem TRIAGE.json|BUNDLE.json...";
  for i = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(i) in
    match read_file path with
    | Error e -> die "%s" e
    | Ok root -> (
      try
        match string (field "schema" root) with
        | "nlh-triage/1" -> print_triage path root
        | "nlh-postmortem/1" ->
          Printf.printf "%s:\n" path;
          print_bundle root
        | s -> die "%s: unsupported schema %S" path s
      with Invalid msg -> die "%s: %s" path msg)
  done
