(* dse: the architect's one-time cost.  Each round generates one overlay
   per suite with [Overgen.generate] (a single annealing island, fixed
   DSE seed and iteration budget), then compiles the suite's kernels onto
   the overlay it produced. *)

open Common
open Overgen_workload
module Dse = Overgen_dse.Dse
module Device = Overgen_fpga.Device
module Predict = Overgen_mlp.Predict
module Perf = Overgen_perf.Perf
module Spatial = Overgen_scheduler.Spatial

let iterations = 60
let dse_seed = 1

(* A round takes about 2.5 s on the reference machine. *)
let work_units seconds = max 1 (int_of_float (Float.round (seconds /. 2.5)))

let config =
  { Dse.default_config with seed = dse_seed; iterations; islands = 1 }

(* The seed orders the suites within every round; the DSE inputs
   themselves are fixed, so the generated overlays do not depend on it. *)
let inputs seed =
  let rng = Overgen_util.Rng.create seed in
  Overgen_util.Rng.shuffle rng Suite.all

let check_result suite (o : Overgen.overlay) =
  let what = "dse " ^ Suite.to_string suite in
  let r = Option.get o.dse in
  require what (Checks.design_fits ~device:Device.default o.design);
  require what (Checks.design_schedules_valid o.design);
  require what (Checks.objective_recomputed o.design);
  require what (Checks.objective_dominates_trace r)

(* The figures of one generated overlay that must repeat exactly. *)
let signature (o : Overgen.overlay) =
  let r = Option.get o.dse in
  (o.design.objective, r.stats, r.modeled_hours, Overgen.fingerprint o)

(* Median per-call time, in seconds, of [n] back-to-back calls. *)
let per_call ?(n = 50) f =
  median (List.init 5 (fun _ -> snd (time (fun () -> for _ = 1 to n do ignore (f ()) done)) /. float_of_int n))

let run ~seed ~seconds ~traced =
  let order = inputs seed in
  let kernels = List.map (fun s -> (s, Kernels.of_suite s)) Suite.all in
  let model, train_s, train_alloc = train_model () in
  let setup_s = now () -. !origin in
  let per_iter = ref [] and compiles = ref [] and round_ops = ref [] and busy = ref [] in
  let iters = ref 0 and generates = ref 0 in
  let results = Hashtbl.create 3 in
  let alloc_per_iter = ref [] in
  if traced then Obs.enable ();
  let rounds = ref 0 in
  Refclock.reset ();
  Refclock.mark ();
  (* the measured work; with ticks on, long operations get reference
     readings inside them *)
  let measure () =
    while !rounds < work_units seconds do
      busy := [];
      List.iter
        (fun suite ->
          let ks = List.assoc suite kernels in
          let a0 = alloc_bytes () in
          let o, op =
            Spans.with_span "generate" ~attrs:[ ("suite", Suite.to_string suite) ] @@ fun () ->
            Refclock.time (fun () -> Overgen.generate ~config ~model ks)
          in
          alloc_per_iter := (mb (alloc_bytes () -. a0) /. float_of_int iterations) :: !alloc_per_iter;
          if not traced then Refclock.mark ();
          busy := op :: !busy;
          iters := !iters + iterations;
          incr generates;
          per_iter := (Suite.to_string suite, op) :: !per_iter;
          if not traced then
            List.iter
              (fun (k : Ir.kernel) ->
                let _, op =
                  Refclock.time (fun () ->
                      must ("compile on generated overlay: " ^ k.name) (Overgen.compile o k))
                in
                compiles := (k.name, op) :: !compiles;
                Refclock.mark ())
              ks;
          (match Hashtbl.find_opt results suite with
          | None -> Hashtbl.replace results suite o
          | Some first ->
            require "dse repeat"
              (Checks.identical ~what:(Suite.to_string suite ^ " overlays of two rounds")
                 (signature first) (signature o))))
        order;
      round_ops := !busy :: !round_ops;
      Printf.printf "round %d: %.3f s generating\n%!" !rounds
        (sum (List.map (fun (o : Refclock.op) -> o.s) !busy));
      incr rounds
    done
  in
  if traced then measure () else Refclock.with_ticks measure;
  (* memory of the workload itself, before the checks run *)
  let rss = peak_rss_mb () in
  let counters_after =
    List.map
      (fun n -> (n, counter n))
      [
        "overgen_scheduler_repairs_total";
        "overgen_scheduler_rollback_entries_total";
        "overgen_scheduler_incremental_fallback_total";
      ]
  in
  Obs.disable ();
  let best = List.map (fun s -> (s, Hashtbl.find results s)) Suite.all in
  List.iter (fun (s, o) -> check_result s o) best;
  Printf.printf "dse: %d rounds, %d overlays generated, %d iterations each\n" !rounds
    !generates iterations;
  let objectives = List.map (fun (_, (o : Overgen.overlay)) -> o.design.objective) best in
  let metrics =
    if not traced then
      begin
        let units = Refclock.to_units () in
        (* DSE iterations per unit of time, median over rounds *)
        let rate conv =
          median
            (List.map
               (fun ops ->
                 float_of_int (iterations * List.length ops) /. sum (List.map conv ops))
               !round_ops)
        in
        (* time per iteration, by suite *)
        let per_iter conv =
          typical (List.map (fun (s, o) -> (s, conv o /. float_of_int iterations)) !per_iter)
        in
        let typ conv = typical (List.map (fun (k, o) -> (k, conv o)) !compiles) in
        let ms (o : Refclock.op) = o.s *. 1000.0 in
        host_line ~ops_per_s:(rate (fun o -> o.s)) ~op_ms:(per_iter ms) ~cold_ms:(typ ms);
        [
          m "setup_s" "s" setup_s;
          m "peak_rss_mb" "MB" rss;
          m "ops_per_kref" "1/kref" (1000.0 *. rate units);
          m "op_p50_ref" "ref" (per_iter units);
          m "cold_p50_ref" "ref" (typ units);
          m "modeled_ipc" "IPC" (geomean objectives);
        ]
      end
    else begin
      let stats = List.map (fun (_, (o : Overgen.overlay)) -> (Option.get o.dse).stats) best in
      let total f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
      let accepted = total (fun (s : Dse.stats) -> s.accepted) in
      (* per round: counters accumulate over every round of the run *)
      let per_round n = float_of_int (List.assoc n counters_after) /. float_of_int !rounds in
      let timed f =
        median
          (List.map
             (fun (s, (o : Overgen.overlay)) -> f s o)
             best)
      in
      Layers.metrics
        [
          ("mlp.train_s", train_s);
          ("mlp.train_alloc_mb", mb train_alloc);
          ("dse.alloc_mb_per_iter", median !alloc_per_iter);
          ("dse.accepted", accepted);
          ("dse.invalid", total (fun s -> s.invalid));
          ("dse.repaired", total (fun s -> s.repaired));
          ("dse.incremental", total (fun s -> s.incremental));
          ("dse.rescheduled", total (fun s -> s.rescheduled));
          ("dse.accept_ratio", accepted /. float_of_int (iterations * List.length best));
          ( "dse.modeled_hours",
            sum (List.map (fun (_, (o : Overgen.overlay)) -> (Option.get o.dse).modeled_hours) best) );
          ("dse.est_ipc", geomean objectives);
          ("scheduler.repairs", per_round "overgen_scheduler_repairs_total");
          ("scheduler.rollback_entries", per_round "overgen_scheduler_rollback_entries_total");
          ( "scheduler.incremental_fallback",
            per_round "overgen_scheduler_incremental_fallback_total" );
          ( "mlp.predict_full_us",
            1e6 *. timed (fun _ o -> per_call (fun () -> Predict.predict_full model o.design.sys)) );
          ( "perf.objective_us",
            1e6 *. timed (fun _ o -> per_call (fun () -> Perf.objective o.design.sys o.design.per_app)) );
          ( "scheduler.schedule_app_ms",
            1e3
            *. timed (fun s o ->
                   let apps = Dse.compile_apps ~tuned:false (List.assoc s kernels) in
                   per_call ~n:1 (fun () ->
                       List.iter (fun cc -> ignore (Spatial.schedule_app o.design.sys cc)) apps)) );
        ]
    end
  in
  { attempted = !iters; failed = 0; metrics }
