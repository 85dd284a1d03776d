(* Shared plumbing of the end-to-end benchmark: clocks, statistics,
   process and environment readings, the benchmark's own span buffer and
   the result line. *)

module Obs = Overgen_obs.Obs

(* Linked before every workload module, so this is as close to process
   start as an OCaml program can read the clock. *)
let t_start = Unix.gettimeofday ()
let now = Unix.gettimeofday

(* Where a workload's set-up time starts: process start for a measured
   run, the workload's own start in the short mode. *)
let origin = ref t_start

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

exception Check_failed of string

(* A failed correctness check aborts the run: the command exits non-zero
   and prints no result line. *)
let require what = function
  | Ok () -> ()
  | Error e -> raise (Check_failed (what ^ ": " ^ e))

let must what = function Ok x -> x | Error e -> raise (Check_failed (what ^ ": " ^ e))

(* --- statistics ------------------------------------------------------ *)

include Overgen_util.Stats

let sum xs = List.fold_left ( +. ) 0.0 xs

(* The typical time of an operation when operations come in kinds of
   different cost (kernels, suites): the geometric mean over kinds of
   each kind's median.  A plain median over all samples would jump
   between kinds as noise reorders them. *)
let typical samples =
  let kinds = List.sort_uniq compare (List.map fst samples) in
  geomean
    (List.map
       (fun k -> median (List.filter_map (fun (k', v) -> if k = k' then Some v else None) samples))
       kinds)

(* Allocation of this domain, counted in the minor heap: the allocation
   pointer makes it exact, so a figure repeats exactly when the work
   does.  Blocks too large for the minor heap are not counted. *)
let alloc_words () = Gc.minor_words ()
let alloc_bytes () = alloc_words () *. float_of_int (Sys.word_size / 8)
let mb bytes = bytes /. 1048576.0

(* --- reference clock --------------------------------------------------- *)

(* The shared host runs the same instructions at speeds up to 1.6x apart,
   in phases that last from a second to minutes, and a fixed integer loop
   slows down with the program.  So the end-to-end metrics give host
   times in reference units: one unit is the time of a million iterations
   of that loop, read on the timing thread before, after and, for long
   operations, during the operations it divides.  The operations' raw
   host times are printed beside them. *)
module Refclock = struct
  let iterations = 2_000_000

  let loop () =
    let r = ref 0 in
    for i = 1 to iterations do
      r := !r lxor (i * 7)
    done;
    !r

  (* Seconds per reference unit, read now. *)
  let unit_s () =
    snd (time (fun () -> ignore (Sys.opaque_identity (loop ()))))
    /. float_of_int (iterations / 1_000_000)

  (* Readings, newest first, and how many. *)
  let readings = ref [] and count = ref 0
  let reading = ref false

  let reset () =
    readings := [];
    count := 0

  (* A reading, taken between two operations or by a tick. *)
  let mark () =
    reading := true;
    readings := unit_s () :: !readings;
    incr count;
    reading := false

  (* Host seconds spent on readings taken inside timed operations. *)
  let inside_s = ref 0.0
  let timing = ref false

  (* With ticks on, a reading is also taken every [tick_s] inside a timed
     operation, from a SIGALRM handler on the timing thread, and its time
     is taken out of the operation's.  Only for workloads that make no
     blocking system calls while ticks are on. *)
  let tick_s = 0.1

  let tick _ =
    if !timing && not !reading then begin
      let t0 = now () in
      mark ();
      inside_s := !inside_s +. (now () -. t0)
    end

  let set_timer s =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s })

  let with_ticks f =
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle tick);
    set_timer tick_s;
    Fun.protect f ~finally:(fun () ->
        set_timer 0.0;
        Sys.set_signal Sys.sigalrm Sys.Signal_default)

  (* An operation: its host seconds without the readings taken inside it,
     the reading before it and the one that follows it. *)
  type op = { s : float; first : int; last : int }

  (* An operation timed elsewhere, never converted to units. *)
  let raw s = { s; first = -1; last = -1 }

  (* [f ()] timed as one operation.  A reading must come before it. *)
  let time f =
    if !count = 0 then raise (Check_failed "reference clock: no reading before an operation");
    let first = !count - 1 and i0 = !inside_s in
    let r, dt =
      time (fun () ->
          timing := true;
          Fun.protect f ~finally:(fun () -> timing := false))
    in
    (r, { s = dt -. (!inside_s -. i0); first; last = !count })

  (* The conversion to units, once the last reading is taken: host time
     over the mean of every reading from the one before to the one after. *)
  let to_units () =
    let a = Array.of_list (List.rev !readings) in
    fun o ->
      if o.first < 0 || o.last >= Array.length a then
        raise (Check_failed "reference clock: an operation has no reading after it");
      let n = o.last - o.first + 1 in
      o.s /. (sum (Array.to_list (Array.sub a o.first n)) /. float_of_int n)

  (* Median seconds per unit over the run, for the raw-time line. *)
  let median_unit_s () = median !readings
end

(* The end-to-end timings in host seconds, printed beside the metrics. *)
let host_line ~ops_per_s ~op_ms ~cold_ms =
  Printf.printf
    "host: ops_per_s=%.4g op_p50_ms=%.4g cold_p50_ms=%.4g ref_unit_ms=%.4g readings=%d\n"
    ops_per_s op_ms cold_ms
    (1000.0 *. Refclock.median_unit_s ())
    !Refclock.count

(* --- process and environment readings -------------------------------- *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let status_kb field =
  match read_file "/proc/self/status" with
  | None -> 0.0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ k; v ] when k = field -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> ( try float_of_string n with _ -> acc)
          | [] -> acc)
        | _ -> acc)
      0.0 (String.split_on_char '\n' s)

let peak_rss_mb () = status_kb "VmHWM" /. 1024.0

let loadavg () =
  match read_file "/proc/loadavg" with
  | Some s -> (
    match String.split_on_char ' ' s with
    | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
    | _ -> "?")
  | None -> "?"

(* Steal ticks summed over every CPU: the 8th field of /proc/stat's
   aggregate "cpu" line. *)
let steal_ticks () =
  match read_file "/proc/stat" with
  | None -> "?"
  | Some s -> (
    match String.split_on_char '\n' s with
    | line :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields when List.length fields >= 8 -> List.nth fields 7
      | _ -> "?")
    | [] -> "?")

(* The checkout the benchmark runs from need not be a git repository;
   read the revision straight from .git when there is one. *)
let git_rev () =
  let trim = String.trim in
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
    let head = trim head in
    match String.index_opt head ' ' with
    | Some i when String.sub head 0 i = "ref:" -> (
      let r = trim (String.sub head (i + 1) (String.length head - i - 1)) in
      match read_file (Filename.concat ".git" r) with
      | Some rev -> trim rev
      | None -> r)
    | _ -> head)

let env_start = lazy (loadavg (), steal_ticks ())

let env_line () =
  let load0, steal0 = Lazy.force env_start in
  Printf.sprintf
    "env nproc=%d ocaml=%s rev=%s load_start=[%s] load_end=[%s] \
     steal_ticks_start=%s steal_ticks_end=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_rev ()) load0 (loadavg ()) steal0 (steal_ticks ())

(* --- the benchmark's own span buffer ---------------------------------- *)

(* Spans the benchmark records around its calls into each layer.  They
   live here rather than in [Obs.Span], whose per-domain state the
   server's systhreads share; only the benchmark's main thread records. *)
module Spans = struct
  let buf : Obs.Span.span list ref = ref []
  let next_id = ref 0
  let stack : int list ref = ref []
  let on = ref false

  let with_span ?(attrs = []) name f =
    if not !on then f ()
    else begin
      incr next_id;
      let id = !next_id in
      let parent = match !stack with p :: _ -> p | [] -> 0 in
      stack := id :: !stack;
      let t0 = now () in
      let finish () =
        let t1 = now () in
        stack := List.tl !stack;
        buf :=
          {
            Obs.Span.id;
            parent;
            trace = "";
            name;
            attrs;
            domain = 0;
            start_s = t0 -. t_start;
            dur_s = t1 -. t0;
          }
          :: !buf
      in
      match f () with
      | r ->
        finish ();
        r
      | exception e ->
        finish ();
        raise e
    end

  (* Chrome trace-event JSON, checked the way [overgen trace-validate]
     checks it before it is written. *)
  let write path =
    let doc = Obs.Export.to_chrome (List.rev !buf) in
    require "trace file" (Obs.Export.validate_json doc);
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Obs.Export.write_file ~path doc
end

(* --- counters of the program's default registry ----------------------- *)

let counter name =
  Obs.Metrics.counter_value (Obs.Metrics.counter Obs.Metrics.default name)

(* --- result ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else raise (Check_failed (Printf.sprintf "metric %s is not finite" name))

let result_line ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (json_number x.name x.value) x.unit_)
          metrics))

(* What one workload run reports. *)
type outcome = { attempted : int; failed : int; metrics : metric list }

(* --- set-up shared by the workloads ----------------------------------- *)

(* The short mode runs every workload in one process and trains the
   resource model once; a measured run always trains its own. *)
let share_model = ref false
let trained = ref None

let train_model () =
  match !trained with
  | Some r -> r
  | None ->
    let a0 = alloc_bytes () in
    let model, s = time (fun () -> Overgen.train_model ()) in
    let r = (model, s, alloc_bytes () -. a0) in
    if !share_model then trained := Some r;
    r
