(* The end-to-end benchmark command.

     main.exe --workload kernel-run|dse|serve --seed N --seconds S --trace 0|1
     main.exe --short [--seed N]

   A measured run prints an environment line, the workload's attempted
   and failed operation counts, and, as its last line, one JSON object
   with the end-to-end metrics (--trace 0) or the per-layer metrics of
   the traced run (--trace 1).  The traced run also writes the
   benchmark's spans as a Chrome trace to _e2ebench/trace-<workload>.json.
   --short runs every workload for a few seconds, traced and untraced,
   with every check on.  Any failed check exits non-zero before a result
   is printed. *)

open Common

let workloads =
  [
    ("kernel-run", Kernel_run.run);
    ("dse", Dse_run.run);
    ("serve", Serve_run.run);
  ]

let trace_path name = Printf.sprintf "_e2ebench/trace-%s.json" name

let run_one ~name ~seed ~seconds ~traced =
  let run = List.assoc name workloads in
  Spans.buf := [];
  Spans.on := traced;
  let r = run ~seed ~seconds ~traced in
  if traced then Spans.write (trace_path name);
  Printf.printf "%s: attempted %d, failed %d\n%!" name r.attempted r.failed;
  r

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and short = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME kernel-run, dse or serve");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--short", Arg.Set short, " run every workload briefly with every check on");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  ignore (Lazy.force env_start);
  try
    if !short then begin
      share_model := true;
      List.iter
        (fun (name, _) ->
          List.iter
            (fun traced ->
              origin := now ();
              ignore (run_one ~name ~seed:!seed ~seconds:2.0 ~traced))
            [ false; true ])
        workloads;
      print_endline (env_line ());
      print_endline "short mode: every check passed"
    end
    else begin
      if not (List.mem_assoc !workload workloads) then begin
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
      end;
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "--trace takes 0 or 1";
        exit 2
      end;
      let r = run_one ~name:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) in
      print_endline (env_line ());
      print_endline (result_line ~attempted:r.attempted ~failed:r.failed r.metrics)
    end
  with Check_failed e ->
    Printf.eprintf "check failed: %s\n%!" e;
    exit 1
