(* perfbench: end-to-end benchmark of the MRSL stack.

     bench.exe --workload derive|impute|serve --seed N --seconds S
               --trace 0|1 [--cli PATH]

   One invocation runs one workload at one seed in a fresh process. The
   seed draws the relation, the masks and the request stream; the
   generating networks are fixed. The timed phase does a number of whole
   rounds of one fixed set of operations that depends only on --seconds,
   so counters and mean_kl repeat exactly and only time varies. Every
   output is checked after the timed phase. The last stdout line is one
   JSON object: correct, attempted, failed, metrics.

   --trace 1 first runs the same arguments untraced in a child process,
   then runs the workload again with benchmark-side spans around every
   layer call. It reports the per-layer metrics of the traced run and
   prints traced minus untraced end-to-end metrics as the tracing
   overhead. See README.md. *)

open Perfbench_lib
module Json = Mrsl.Telemetry.Json

(* ------------------------------------------------------------------ *)
(* Workloads (README.md, "Workloads") *)

let network_seed = 2011
let domains = 2
let setup_repeats = 9
let learn_repeats = 16
let cache_bytes = 64 * 1024 * 1024
let method_ = Mrsl.Voting.best_averaged
let derive_network = "BN18"
let derive_train = 2000
let derive_incomplete = 8000
let impute_network = "BN12"
let impute_train = 6000
let impute_tasks = 2000
let impute_theta = 0.002
let kernel_off_sample = 200

(* Per-call latencies (and, traced, per-task spans) are kept for the
   first rounds only, so memory does not grow with the run length. *)
let impute_latency_rounds = 50
let serve_network = "BN10"
let serve_train = 4000
let serve_pool = 2000
let serve_gibbs_pool = 200
let serve_requests = 2400
let serve_gibbs_share = 0.03
let serve_reload_every = 600
let serve_in_flight = 8
let serve_zipf_s = 1.0

(* Nominal length of one round on a 2-core host. A run does
   [rounds_for seconds] whole rounds — a count fixed by --seconds, so two
   runs with the same arguments do exactly the same operations. A derive
   round is one cold `mrsl infer`; a second round in one process would
   pin the first round's samplers (see README.md). The serve round is
   its measured median, so its timed phase fills --seconds: the host
   drifts over tens of seconds, and a shorter window spreads more
   (README.md, "Measured facts"). *)
let derive_round_s = 3.
let impute_round_s = 0.01
let serve_round_s = 0.16

let rounds_for seconds nominal =
  max 1 (int_of_float (Float.round (seconds /. nominal)))

(* Largest allowed gap, in percent of the client median, between the
   client median and the sum of the medians of its parts. *)
let decomposition_tolerance_pct = 25.

(* Largest share of requests, in percent, whose daemon total may exceed
   the client-observed latency (see serve_layers). *)
let late_flush_pct = 2.

(* ------------------------------------------------------------------ *)
(* Operation and failure accounting *)

type phase = { pname : string; mutable attempted : int; mutable failed : int }

let phases = ref []
let failures = ref []

let phase pname =
  let p = { pname; attempted = 0; failed = 0 } in
  phases := p :: !phases;
  p

let setup_ops = phase "setup"
let learn_ops = phase "learn"
let timed_ops = phase "timed"
let check_ops = phase "check"
let ok (p : phase) n = p.attempted <- p.attempted + n

let fail (p : phase) msg =
  p.failed <- p.failed + 1;
  if List.length !failures < 20 then failures := msg :: !failures

let check cond msg =
  ok check_ops 1;
  if not cond then fail check_ops (msg ())

let totals () =
  List.fold_left (fun (a, f) p -> (a + p.attempted, f + p.failed)) (0, 0) !phases

(* ------------------------------------------------------------------ *)
(* Process hygiene: one scratch directory per run, every child reaped,
   both removed on every exit path. *)

let out_dir = ".perfbench_out"
let run_dir = Printf.sprintf "%s/run-%d" out_dir (Unix.getpid ())
let children = ref []

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

(* Wait up to [grace] seconds for [pid], then SIGKILL it. *)
let reap ?(grace = 5.) pid =
  let deadline = Unix.gettimeofday () +. grace in
  let rec poll () =
    match waitpid_noeintr [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        poll ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (waitpid_noeintr [] pid)
    | _, status -> status
  in
  let status = try poll () with Unix.Unix_error _ -> Unix.WEXITED 255 in
  children := List.filter (( <> ) pid) !children;
  status

let cleanup () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (reap pid : Unix.process_status))
    !children;
  if Sys.file_exists run_dir then try rm_rf run_dir with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Helpers *)

let now_ns = Mrsl.Clock.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

let network id =
  Bayesnet.Network.generate
    (Prob.Rng.create network_seed)
    (Bayesnet.Catalog.find id).topology

let schema_of net = Bayesnet.Topology.schema (Bayesnet.Network.topology net)

let cards_of schema =
  Array.init (Relation.Schema.arity schema) (Relation.Schema.cardinality schema)

(* The host's speed drifts between a fast and a slow state over seconds
   (README.md, "Measured facts"), so repeated timings are spread over the
   whole run instead of taken back to back: [spread_before ~count ~rounds r]
   is how many of [count] repetitions, spread evenly inside a run of
   [rounds] rounds, fall before round [r]. *)
let spread_before ~count ~rounds r =
  List.length
    (List.filter (fun i -> i * rounds / (count + 1) = r) (List.init count succ))

(* Every timed set-up of the run; setup_s is their median. The first one
   builds the run's inputs, the others repeat it between rounds. *)
let setup_times = ref []

let record_setup dt =
  ok setup_ops 1;
  setup_times := dt :: !setup_times

let setup f =
  let r, dt = timed f in
  record_setup dt;
  r

let resetups ~rounds r f =
  for _ = 1 to spread_before ~count:(setup_repeats - 1) ~rounds r do
    f ()
  done

let setup_s () = Prob.Stats.median !setup_times

let params theta =
  { Mrsl.Model.default_params with support_threshold = theta }

(* Every timed learn of the run. learn_s is their mean, which moves
   less with the host's drift than a median does. *)
let learn_times = ref []

(* Traced runs split each learn into mining and the rest (model.build)
   with the slices Model.learn itself emits to a Trace sink, so both
   parts are timed inside the same call. *)
let mine_times = ref []
let build_times = ref []

let slice_seconds sink name =
  List.fold_left
    (fun acc (e : Mrsl.Trace.event) ->
      match e.phase with Complete ns when e.name = name -> acc + ns | _ -> acc)
    0 (Mrsl.Trace.events sink)
  |> fun ns -> float_of_int ns /. 1e9

let learn ~spans ~theta inst =
  let call () =
    Spans.with_span spans "model.learn" (fun () ->
        Mrsl.Model.learn ~params:(params theta) inst)
  in
  let (model, sink), dt =
    timed (fun () ->
        match spans with
        | None -> (call (), None)
        | Some _ ->
            let model, sink = Mrsl.Trace.with_sink ~capacity_per_domain:1024 call in
            (model, Some sink))
  in
  ok learn_ops 1;
  learn_times := dt :: !learn_times;
  Option.iter
    (fun sink ->
      let mine = slice_seconds sink "mine.frequent_itemsets" in
      mine_times := mine :: !mine_times;
      build_times := (slice_seconds sink "model.learn" -. mine) :: !build_times)
    sink;
  model

let learn_s () = Prob.Stats.mean !learn_times

let relearns ~rounds r f =
  for _ = 1 to spread_before ~count:(learn_repeats - 1) ~rounds r do
    ignore (f () : Mrsl.Model.t)
  done

let write_csv ~spans name ~schema inst =
  let path = Filename.concat run_dir name in
  Relation.Csv_io.write_file path inst;
  Spans.with_span spans "relation.csv_read" (fun () ->
      Relation.Csv_io.read_file ~schema path)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let vm_hwm_mib pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid)
    In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         with Scanf.Scan_failure _ | End_of_file -> None)
  |> Option.value ~default:0.

let counter name = Mrsl.Telemetry.counter Mrsl.Telemetry.global name
let ratio a b = if a +. b > 0. then a /. (a +. b) else 0.

(* Bytes allocated by every domain of this process (Gc.quick_stat sums
   the domains; Gc.allocated_bytes would see only the calling one). *)
let alloc_bytes () =
  let s = Gc.quick_stat () in
  (s.minor_words +. s.major_words -. s.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.minor_collections, s.major_collections)

(* Median self time of the spans called [name]; 0 when the workload
   never entered that layer. *)
let self_median spans name =
  Prob.Stats.median (Array.to_list (Spans.self_seconds spans name))

let tail_or_zero xs q = Option.value (Pstats.tail xs q) ~default:0.

(* The kernel compiles lazily on first use, inside an inference call,
   so the traced run compiles it once more as its own span. *)
let layer_costs spans model =
  ignore
    (Spans.with_span spans "kernel.compile" (fun () -> Mrsl.Kernel.compile model)
      : Mrsl.Kernel.t);
  [
    ("mining.mine_s", Prob.Stats.median !mine_times, "s");
    ("model.build_s", Prob.Stats.median !build_times, "s");
    ("mining.itemsets", float_of_int (Mrsl.Model.frequent_itemsets model), "count");
    ("model.meta_rules", float_of_int (Mrsl.Model.size model), "count");
  ]

(* ------------------------------------------------------------------ *)
(* Results *)

type metric = string * float * string

type run = {
  e2e : metric list;
  latency : metric list;  (** printed beside the metrics, not reported *)
  layers : metric list;  (** per-layer metrics; [] when untraced *)
}

let e2e ~setup_s ~learn_s ~tuples_per_s ~mean_kl ~peak_rss_mb =
  [
    ("setup_s", setup_s, "s");
    ("learn_s", learn_s, "s");
    ("tuples_per_s", tuples_per_s, "tuples/s");
    ("mean_kl", mean_kl, "nats");
    ("peak_rss_mb", peak_rss_mb, "MiB");
  ]

let mean_kl_checked name kls base =
  let mean_kl = Prob.Stats.mean kls in
  let base_kl = Prob.Stats.mean base in
  check (mean_kl < base_kl) (fun () ->
      Printf.sprintf "%s: mean_kl %g not below the marginal baseline %g" name
        mean_kl base_kl);
  Printf.printf "check %s: mean_kl %.6f nats, marginal baseline %.6f nats\n"
    name mean_kl base_kl;
  mean_kl

(* ------------------------------------------------------------------ *)
(* derive: `mrsl infer --domains 2` as library calls *)

let derive_inputs ~seed ~spans =
  let net = network derive_network in
  let schema = schema_of net in
  let rng = Prob.Rng.create seed in
  let train = Bayesnet.Network.sample_instance rng net derive_train in
  let incomplete =
    Relation.Instance.mask_uniform rng ~max_missing:3
      (Bayesnet.Network.sample_instance rng net derive_incomplete)
  in
  let inst =
    write_csv ~spans "derive.csv" ~schema (Relation.Instance.append train incomplete)
  in
  (net, inst)

(* One `mrsl infer --domains 2`: tuple-DAG Gibbs over every distinct
   incomplete tuple with the default burn-in and sample counts, the memo
   and a fresh posterior cache, then one Probdb block per source tuple. *)
let derive_pass ~seed ~spans model inst =
  let tuples = Array.to_list (Relation.Instance.incomplete_part inst) in
  let cache = Mrsl.Posterior_cache.create ~max_bytes:cache_bytes () in
  let contained =
    Spans.with_span spans "parallel.run" (fun () ->
        Mrsl.Parallel.run_contained ~config:Mrsl.Gibbs.default_config
          ~strategy:Mrsl.Workload.Tuple_dag ~method_ ~cache ~domains ~seed model
          tuples)
  in
  let pdb =
    Spans.with_span spans "probdb.blocks" (fun () ->
        let by_tuple = Relation.Tuple.Table.create 1024 in
        List.iter
          (fun (t, est) -> Relation.Tuple.Table.replace by_tuple t est)
          contained.result.estimates;
        Probdb.Pdb.make
          (Relation.Instance.schema inst)
          (List.map
             (fun t ->
               match Relation.Tuple.to_point t with
               | Some p -> Probdb.Block.of_point p
               | None ->
                   Probdb.Block.of_estimate (Relation.Tuple.Table.find by_tuple t))
             (Array.to_list (Relation.Instance.tuples inst))))
  in
  (contained.result, pdb)

let check_derive net inst (result : Mrsl.Workload.result) pdb =
  let cards = cards_of (Relation.Instance.schema inst) in
  let marg = Oracle.marginals ~cards (Relation.Instance.complete_part inst) in
  let kls = ref [] and base = ref [] in
  List.iter
    (fun (t, (est : Mrsl.Gibbs.estimate)) ->
      let missing, exact = Bayesnet.Network.posterior_joint net t in
      let well_formed =
        missing = est.missing
        && missing = Relation.Tuple.missing t
        && Oracle.valid_dist ~size:(Prob.Dist.size exact) (Prob.Dist.to_array est.joint)
      in
      check well_formed (fun () ->
          "derive: an estimate is not a distribution over the missing values");
      if well_formed then begin
        kls := Prob.Divergence.kl exact est.joint :: !kls;
        base := Prob.Divergence.kl exact (Oracle.product ~cards marg missing) :: !base
      end)
    result.estimates;
  let distinct =
    List.length
      (List.sort_uniq Relation.Tuple.compare
         (Array.to_list (Relation.Instance.incomplete_part inst)))
  in
  check
    (List.length result.estimates = distinct)
    (fun () -> "derive: not every distinct incomplete tuple was derived");
  check
    (Probdb.Pdb.block_count pdb = Relation.Instance.size inst)
    (fun () -> "derive: expected one block per source tuple");
  mean_kl_checked "derive" !kls !base

(* What one derive pass reports back from its process. *)
type derive_report = {
  learn_s : float;
  pass_s : float;
  digest : string;  (** of every estimate and work counter *)
  distinct : int;
  rss_mb : float;
  kl : float;
  ops : (int * int) list;  (** attempted, failed per phase *)
  failed_checks : string list;
  layer_values : metric list;
  pass_spans : Spans.span list;
}

(* Run [f] in a forked process and return what it returns. The parent
   never starts a domain, so each pass starts as cold as a fresh
   `mrsl infer` — and no sampler, memo or cache outlives its pass. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let report = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc report [];
      close_out oc;
      flush_all ();
      Unix._exit 0
  | pid -> (
      Unix.close w;
      children := pid :: !children;
      let ic = Unix.in_channel_of_descr r in
      let report = try Some (Marshal.from_channel ic) with End_of_file -> None in
      close_in ic;
      let status = reap ~grace:60. pid in
      match (report, status) with
      | Some (Ok report), Unix.WEXITED 0 -> report
      | Some (Error e), _ -> failwith ("derive pass: " ^ e)
      | _ -> failwith "derive pass: the pass process died")

let derive_round ~seed ~traced net inst () =
  let spans = if traced then Some (Spans.create ()) else None in
  let theta = Mrsl.Model.default_params.support_threshold in
  let before =
    List.map
      (fun n -> (n, counter n))
      [ "parallel.steals"; "sched.busy_ns"; "sched.idle_ns"; "kernel.hits";
        "kernel.fallback"; "cache.hits"; "cache.misses"; "cache.evictions";
        "cache.dedup_fanout" ]
  in
  let alloc0 = alloc_bytes () and minor0, major0 = gc_counts () in
  (* Two learns per pass, so learn_s averages 2 x passes samples. *)
  ignore (learn ~spans ~theta inst : Mrsl.Model.t);
  let model = learn ~spans ~theta inst in
  let a0 = alloc_bytes () in
  let (result, pdb), pass_s =
    timed (fun () ->
        Spans.with_span spans "derive.pass" (fun () ->
            derive_pass ~seed ~spans model inst))
  in
  let pass_alloc = alloc_bytes () -. a0 in
  let minor1, major1 = gc_counts () in
  let alloc = alloc_bytes () -. alloc0 in
  let rss_mb = vm_hwm_mib "self" in
  ok timed_ops (List.length result.estimates);
  let kl = check_derive net inst result pdb in
  let digest =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            ( { result.stats with wall_seconds = 0. },
              List.map
                (fun (t, (e : Mrsl.Gibbs.estimate)) ->
                  (t, e.missing, e.samples_used, Prob.Dist.to_array e.joint))
                result.estimates )
            []))
  in
  let layer_values =
    match spans with
    | None -> []
    | Some sp ->
        let fixed = layer_costs spans model in
        ignore
          (Spans.with_span spans "dag.build" (fun () ->
               Mrsl.Tuple_dag.build
                 (Array.to_list (Relation.Instance.incomplete_part inst)))
            : Mrsl.Tuple_dag.t);
        let delta n = float_of_int (counter n - List.assoc n before) in
        let s = result.stats in
        let memo =
          match Mrsl.Telemetry.histogram Mrsl.Telemetry.global "gibbs.memo_hit_rate" with
          | Some h -> h.mean
          | None -> 0.
        in
        fixed
        @ [
            ("kernel.hit_ratio", ratio (delta "kernel.hits") (delta "kernel.fallback"), "ratio");
            ("gibbs.sweeps", float_of_int s.sweeps, "count");
            ("gibbs.memo_hit_ratio", memo, "ratio");
            ("gibbs.alloc_bytes_per_sweep", pass_alloc /. float_of_int s.sweeps, "B");
            ("dag.build_s", self_median sp "dag.build", "s");
            ("dag.shared_ratio", float_of_int s.shared /. float_of_int (max 1 s.recorded), "ratio");
            ("parallel.run_s", self_median sp "parallel.run", "s");
            ("parallel.utilization", ratio (delta "sched.busy_ns") (delta "sched.idle_ns"), "ratio");
            ("parallel.steals", delta "parallel.steals", "count");
            ("probdb.blocks_s", self_median sp "probdb.blocks", "s");
            ("cache.hit_ratio", ratio (delta "cache.hits") (delta "cache.misses"), "ratio");
            ("cache.dedup_fanout", delta "cache.dedup_fanout", "count");
            ("cache.evictions", delta "cache.evictions", "count");
            ("gc.minor_collections", float_of_int (minor1 - minor0), "count");
            ("gc.major_collections", float_of_int (major1 - major0), "count");
            ("mem.allocated_mb", alloc /. 1048576., "MiB");
          ]
  in
  {
    learn_s = learn_s ();
    pass_s;
    digest;
    distinct = List.length result.estimates;
    rss_mb;
    kl;
    ops = List.map (fun p -> (p.attempted, p.failed)) !phases;
    failed_checks = !failures;
    layer_values;
    pass_spans = Option.fold ~none:[] ~some:Spans.spans spans;
  }

let run_derive ~seed ~seconds ~spans =
  let net, inst = setup (fun () -> derive_inputs ~seed ~spans) in
  let rounds = rounds_for seconds derive_round_s in
  let reports =
    List.init rounds (fun r ->
        resetups ~rounds r (fun () -> ignore (setup (fun () -> derive_inputs ~seed ~spans)));
        let report = in_child (derive_round ~seed ~traced:(spans <> None) net inst) in
        (* The pass process started with this process's counts; take
           over what it added. *)
        let mine = List.map (fun p -> (p.attempted, p.failed)) !phases in
        List.iter2
          (fun p ((a, f), (a0, f0)) ->
            p.attempted <- p.attempted + (a - a0);
            p.failed <- p.failed + (f - f0))
          !phases
          (List.combine report.ops mine);
        List.iter
          (fun m -> if not (List.mem m !failures) then failures := m :: !failures)
          report.failed_checks;
        Option.iter (fun sp -> Spans.import sp report.pass_spans) spans;
        report)
  in
  let first = List.hd reports in
  List.iter
    (fun r ->
      check (r.digest = first.digest && r.kl = first.kl) (fun () ->
          "derive: a later pass differs from the first"))
    reports;
  Printf.printf "derive: %d distinct tuples, pass seconds %s\n" first.distinct
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.pass_s) reports));
  let med f = Prob.Stats.median (List.map f reports) in
  let layers =
    match spans with
    | None -> []
    | Some _ ->
        List.map
          (fun (name, _, unit_) ->
            ( name,
              med (fun r ->
                  List.find_map (fun (n, v, _) -> if n = name then Some v else None) r.layer_values
                  |> Option.value ~default:0.),
              unit_ ))
          first.layer_values
  in
  {
    e2e =
      e2e ~setup_s:(setup_s ())
        ~learn_s:(Prob.Stats.mean (List.map (fun r -> r.learn_s) reports))
        ~tuples_per_s:
          (float_of_int (first.distinct * List.length reports)
          /. List.fold_left (fun acc r -> acc +. r.pass_s) 0. reports)
        ~mean_kl:first.kl ~peak_rss_mb:(med (fun r -> r.rss_mb));
    latency = [];
    layers;
  }

(* ------------------------------------------------------------------ *)
(* impute: a Table II / Fig 9 batch of single-missing tuples *)

let impute_inputs ~seed ~spans =
  let net = network impute_network in
  let schema = schema_of net in
  let rng = Prob.Rng.create seed in
  let train = Bayesnet.Network.sample_instance rng net impute_train in
  let test =
    Relation.Instance.mask_exact rng ~missing:1
      (Bayesnet.Network.sample_instance rng net impute_tasks)
  in
  let inst = write_csv ~spans "impute.csv" ~schema train in
  let tasks =
    Array.map
      (fun t -> (t, List.hd (Relation.Tuple.missing t)))
      (Relation.Instance.tuples test)
  in
  (net, inst, tasks)

let run_impute ~seed ~seconds ~spans =
  let net, inst, tasks = setup (fun () -> impute_inputs ~seed ~spans) in
  let model = learn ~spans ~theta:impute_theta inst in
  let n = Array.length tasks in
  let answers = Array.make n (Prob.Dist.uniform 1) in
  let first = ref [||] in
  let lat = Array.make_matrix impute_latency_rounds n 0. in
  let k0 = counter "kernel.hits" and f0 = counter "kernel.fallback" in
  (* Allocation and collections inside the timed segments only. *)
  let alloc = ref 0. and minor = ref 0 and major = ref 0 and timed_s = ref 0. in
  (* The rounds run in [segments] segments. Within one, the calling domain
     and a helper domain each answer their half of every round without
     waiting for the other, so a slow vCPU does not hold back the fast
     one; set-ups and learns run between segments. *)
  let segments = min 8 (rounds_for seconds impute_round_s) in
  let per_segment = rounds_for seconds impute_round_s / segments in
  let rounds = segments * per_segment in
  let half seg h =
    for k = 0 to per_segment - 1 do
      let r = (seg * per_segment) + k in
      (* The recorder is single-threaded: only the calling domain's tasks
         get spans. *)
      let spans = if h = 0 && r < impute_latency_rounds then spans else None in
      let i = ref h in
      while !i < n do
        let t, a = tasks.(!i) in
        let s = now_ns () in
        answers.(!i) <-
          Spans.with_span spans "infer.task" (fun () ->
              Mrsl.Infer_single.infer ~method_ model t a);
        if r < impute_latency_rounds then
          lat.(r).(!i) <- float_of_int (now_ns () - s) /. 1e6;
        i := !i + 2
      done
    done
  in
  for seg = 0 to segments - 1 do
    resetups ~rounds:segments seg (fun () ->
        ignore (setup (fun () -> impute_inputs ~seed ~spans)));
    relearns ~rounds:segments seg (fun () -> learn ~spans ~theta:impute_theta inst);
    let a0 = alloc_bytes () and minor0, major0 = gc_counts () in
    let (), dt =
      timed (fun () ->
          let helper = Domain.spawn (fun () -> half seg 1) in
          half seg 0;
          Domain.join helper)
    in
    let minor1, major1 = gc_counts () in
    alloc := !alloc +. (alloc_bytes () -. a0);
    minor := !minor + (minor1 - minor0);
    major := !major + (major1 - major0);
    timed_s := !timed_s +. dt;
    ok timed_ops (n * per_segment);
    let arrays = Array.map Prob.Dist.to_array answers in
    if !first = [||] then first := arrays
    else
      check (arrays = !first) (fun () -> "impute: a later segment's answers differ from the first")
  done;
  let first = !first in
  (* The exact oracle, the marginal baseline, and bit identity with the
     kernel off on a fixed sample. *)
  let cards = cards_of (Relation.Instance.schema inst) in
  let marg = Oracle.marginals ~cards (Relation.Instance.complete_part inst) in
  let kls = ref [] and base = ref [] in
  Array.iteri
    (fun i (t, a) ->
      let exact = Bayesnet.Network.posterior_single net t a in
      check
        (Oracle.valid_dist ~size:cards.(a) first.(i))
        (fun () -> "impute: an answer is not a distribution over the domain");
      kls := Prob.Divergence.kl exact answers.(i) :: !kls;
      base := Prob.Divergence.kl exact marg.(a) :: !base)
    tasks;
  let mean_kl = mean_kl_checked "impute" !kls !base in
  Mrsl.Kernel.set_enabled false;
  for i = 0 to min n kernel_off_sample - 1 do
    let t, a = tasks.(i) in
    check
      (Prob.Dist.to_array (Mrsl.Infer_single.infer ~method_ model t a) = first.(i))
      (fun () -> Printf.sprintf "impute: task %d differs with the kernel off" i)
  done;
  Mrsl.Kernel.set_enabled true;
  let lat = Array.concat (Array.to_list (Array.sub lat 0 (min rounds impute_latency_rounds))) in
  let layers =
    match spans with
    | None -> []
    | Some sp ->
        let task_us = Array.map (fun s -> s *. 1e6) (Spans.self_seconds sp "infer.task") in
        let voters =
          Array.fold_left
            (fun acc (t, a) -> acc + List.length (Mrsl.Infer_single.voters ~method_ model t a))
            0 tasks
        in
        let per_round = float_of_int rounds in
        layer_costs spans model
        @ [
            ( "kernel.hit_ratio",
              ratio
                (float_of_int (counter "kernel.hits" - k0))
                (float_of_int (counter "kernel.fallback" - f0)),
              "ratio" );
            ("infer.task_us_p50", Prob.Stats.median (Array.to_list task_us), "us");
            ("infer.task_us_p99", tail_or_zero task_us 0.99, "us");
            ("voting.voters_per_task", float_of_int voters /. float_of_int n, "count");
            ("infer.alloc_bytes_per_task", !alloc /. (per_round *. float_of_int n), "B");
            ("gc.minor_collections", float_of_int !minor /. per_round, "count");
            ("gc.major_collections", float_of_int !major /. per_round, "count");
            ("mem.allocated_mb", !alloc /. per_round /. 1048576., "MiB");
          ]
  in
  {
    e2e =
      e2e ~setup_s:(setup_s ()) ~learn_s:(learn_s ())
        ~tuples_per_s:(float_of_int (n * rounds) /. !timed_s)
        ~mean_kl ~peak_rss_mb:(vm_hwm_mib "self");
    latency =
      [
        ("exact_p50_ms", Prob.Stats.median (Array.to_list lat), "ms");
        ("exact_p99_ms", tail_or_zero lat 0.99, "ms");
      ];
    layers;
  }

(* ------------------------------------------------------------------ *)
(* serve: the `mrsl serve` binary, driven over one connection *)

type request = Exact of Relation.Tuple.t * int | Gibbs of Relation.Tuple.t | Reload

let masked rng net ~missing =
  let t = Relation.Tuple.of_point (Bayesnet.Network.sample_point rng net) in
  List.iter
    (fun a -> t.(a) <- None)
    (Prob.Rng.sample_without_replacement rng missing (Array.length t));
  t

(* [n] distinct tuples, in the order first drawn. *)
let distinct_pool rng net n ~missing =
  let seen = Relation.Tuple.Table.create n in
  let pool = ref [] in
  while Relation.Tuple.Table.length seen < n do
    let t = masked rng net ~missing:(missing ()) in
    if not (Relation.Tuple.Table.mem seen t) then begin
      Relation.Tuple.Table.add seen t ();
      pool := t :: !pool
    end
  done;
  Array.of_list (List.rev !pool)

let serve_inputs ~seed ~spans =
  let net = network serve_network in
  let schema = schema_of net in
  let rng = Prob.Rng.create seed in
  let inst =
    write_csv ~spans "serve.csv" ~schema
      (Bayesnet.Network.sample_instance rng net serve_train)
  in
  let pool = distinct_pool rng net serve_pool ~missing:(fun () -> 1) in
  (* Half the Gibbs pool has 2 missing values, half 3, and exactly
     [serve_gibbs_share] of the requests are Gibbs: the mix of costly
     requests must not vary with the seed. *)
  let parity = ref 0 in
  let gibbs =
    distinct_pool rng net serve_gibbs_pool ~missing:(fun () ->
        incr parity;
        2 + (!parity land 1))
  in
  let reload i = i > 0 && i mod serve_reload_every = 0 in
  let slots = List.filter (fun i -> not (reload i)) (List.init serve_requests Fun.id) in
  let n_gibbs =
    int_of_float (Float.round (serve_gibbs_share *. float_of_int serve_requests))
  in
  let is_gibbs = Array.make serve_requests false in
  List.iter
    (fun k -> is_gibbs.(List.nth slots k) <- true)
    (Prob.Rng.sample_without_replacement rng n_gibbs (List.length slots));
  let zipf = Zipf.create ~n:serve_pool ~s:serve_zipf_s in
  let next_gibbs = ref (-1) in
  let stream =
    Array.init serve_requests (fun i ->
        if reload i then Reload
        else if is_gibbs.(i) then begin
          incr next_gibbs;
          Gibbs gibbs.(!next_gibbs mod serve_gibbs_pool)
        end
        else
          let t = pool.(Zipf.sample zipf rng) in
          Exact (t, List.hd (Relation.Tuple.missing t)))
  in
  (net, inst, stream)

let request_line schema id r =
  let op =
    match r with
    | Reload -> Serving.Protocol.Reload None
    | Exact (t, _) | Gibbs t ->
        Serving.Protocol.Infer
          (Array.mapi
             (fun a cell ->
               Option.map
                 (Relation.Attribute.value_label (Relation.Schema.attribute schema a))
                 cell)
             t)
  in
  Serving.Protocol.request_to_line (Serving.Protocol.req ~id:(Json.Int id) op)

type daemon = { pid : int; sock : string; conn : Serving.Client.t; epoch0 : int }

(* Start `mrsl serve` and return once it answers ping. *)
let spawn_daemon ~cli ~model_path ~seed ?(sock = "s.sock") ?access_log () =
  let sock = Filename.concat run_dir sock in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile
      (Filename.concat run_dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let args =
    [ cli; "serve"; "--model"; model_path; "--socket"; sock; "--seed";
      string_of_int seed; "--domains"; string_of_int domains ]
    @ match access_log with Some p -> [ "--access-log"; p ] | None -> []
  in
  let pid = Unix.create_process cli (Array.of_list args) devnull log log in
  Unix.close devnull;
  Unix.close log;
  children := pid :: !children;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec connect () =
    match Serving.Client.connect ~timeout:60. (Serving.Protocol.Unix_socket sock) with
    | c -> c
    | exception Unix.Unix_error _ ->
        if fst (waitpid_noeintr [ Unix.WNOHANG ] pid) <> 0 then begin
          children := List.filter (( <> ) pid) !children;
          failwith "serve: the daemon exited before it listened"
        end;
        if Unix.gettimeofday () > deadline then failwith "serve: the daemon never listened";
        Unix.sleepf 0.002;
        connect ()
  in
  let conn = connect () in
  match Response.parse (Serving.Client.rpc conn (Serving.Protocol.req Serving.Protocol.Ping)) with
  | Ok { ok = true; kind = "pong"; epoch = Some epoch0; _ } -> { pid; sock; conn; epoch0 }
  | _ -> failwith "serve: the daemon did not answer ping"

let shutdown_daemon d =
  let bye = Serving.Client.rpc d.conn (Serving.Protocol.req Serving.Protocol.Shutdown) in
  Serving.Client.close d.conn;
  check
    (match Response.parse bye with Ok { ok = true; kind = "bye"; _ } -> true | _ -> false)
    (fun () -> "serve: shutdown not acknowledged");
  check (reap ~grace:10. d.pid = Unix.WEXITED 0) (fun () -> "serve: the daemon did not exit cleanly");
  check (not (Sys.file_exists d.sock)) (fun () -> "serve: the socket was left behind")

(* One round: every request of the stream, as a closed loop with
   [serve_in_flight] requests outstanding on one connection. Only raw
   lines and timestamps are kept; parsing waits until the end. *)
let serve_round conn lines =
  let q = Array.length lines in
  let sent = Array.make q 0 and recvd = Array.make q 0 and raw = Array.make q "" in
  let next = ref 0 in
  let send () =
    let i = !next in
    sent.(i) <- now_ns ();
    Serving.Client.send_raw conn lines.(i);
    next := i + 1
  in
  let t0 = now_ns () in
  while !next < min serve_in_flight q do
    send ()
  done;
  for k = 0 to q - 1 do
    raw.(k) <- Serving.Client.recv conn;
    recvd.(k) <- now_ns ();
    if !next < q then send ()
  done;
  (raw, sent, recvd, seconds_since t0)

type served_round = { base : int; raw : string array; lat_ms : float array }

(* Client latencies of the exact and of the Gibbs requests. *)
let latencies stream rounds =
  let pick keep =
    Array.concat
      (List.map
         (fun r ->
           Array.of_list
             (List.filteri (fun i _ -> keep stream.(i)) (Array.to_list r.lat_ms)))
         rounds)
  in
  ( pick (function Exact _ -> true | _ -> false),
    pick (function Gibbs _ -> true | _ -> false) )

(* The answer a request must get, computed locally on the model file the
   daemon serves: Infer_single for one missing value, a one-tuple
   Parallel.run_contained at the daemon's seed for several. *)
let local_reference ~seed model =
  let memo = Relation.Tuple.Table.create 1024 in
  fun r ->
    match r with
    | Reload -> []
    | Exact (t, _) | Gibbs t -> (
        match Relation.Tuple.Table.find_opt memo t with
        | Some ans -> ans
        | None ->
            let ans =
              match r with
              | Exact (t, a) ->
                  [ (a, Prob.Dist.to_array (Mrsl.Infer_single.infer ~method_ model t a)) ]
              | _ -> (
                  let c =
                    Mrsl.Parallel.run_contained ~config:Mrsl.Gibbs.default_config
                      ~method_ ~seed model [ t ]
                  in
                  match c.result.estimates with
                  | [ (_, est) ] ->
                      List.map
                        (fun a -> (a, Prob.Dist.to_array (Mrsl.Gibbs.marginal est a)))
                        est.missing
                  | _ -> [])
            in
            Relation.Tuple.Table.add memo t ans;
            ans)

let check_serve ~seed ~net ~inst ~model_path ~epoch0 stream rounds =
  let schema = Relation.Instance.schema inst in
  let cards = cards_of schema in
  let reference = local_reference ~seed (Mrsl.Model_io.load model_path) in
  let marg = Oracle.marginals ~cards (Relation.Instance.complete_part inst) in
  let kls = ref [] and base = ref [] in
  let scored = Relation.Tuple.Table.create 1024 in
  let epoch = ref epoch0 in
  List.iteri
    (fun round r ->
      Array.iteri
        (fun i line ->
          let id = r.base + i in
          let bad what = Printf.sprintf "serve: response %d %s: %s" id what line in
          match (Response.parse line, stream.(i)) with
          | Error e, _ -> check false (fun () -> bad ("is unparsable (" ^ e ^ ")"))
          | Ok resp, req -> (
              check (resp.ok && resp.id = Some id) (fun () -> bad "is not ok or has the wrong id");
              match req with
              | Reload ->
                  check
                    (resp.kind = "reloaded" && resp.epoch = Some (!epoch + 1))
                    (fun () -> bad "did not advance the epoch by one");
                  epoch := Option.value resp.epoch ~default:!epoch
              | Exact (t, _) | Gibbs t ->
                  let want = reference req in
                  let mode = match req with Gibbs _ -> "gibbs" | _ -> "exact" in
                  let shape =
                    resp.kind = "posterior"
                    && resp.mode = Some mode
                    && resp.epoch = Some !epoch
                    && List.map (fun (a : Response.attr) -> a.index) resp.attrs
                       = List.map fst want
                  in
                  check shape (fun () -> bad "has the wrong shape");
                  if shape then
                    List.iter2
                      (fun (a : Response.attr) (_, expected) ->
                        let labels =
                          List.init cards.(a.index)
                            (Relation.Attribute.value_label
                               (Relation.Schema.attribute schema a.index))
                        in
                        let got = Array.of_list (List.map snd a.posterior) in
                        let valid = Oracle.valid_dist ~size:cards.(a.index) got in
                        check
                          (List.map fst a.posterior = labels && valid && got = expected)
                          (fun () -> bad "differs from local inference");
                        if valid && round = 0 && not (Relation.Tuple.Table.mem scored t)
                        then begin
                          let exact = Bayesnet.Network.posterior_single net t a.index in
                          kls := Prob.Divergence.kl exact (Prob.Dist.of_weights got) :: !kls;
                          base := Prob.Divergence.kl exact marg.(a.index) :: !base
                        end)
                      resp.attrs want;
                  Relation.Tuple.Table.replace scored t ()))
        r.raw)
    rounds;
  mean_kl_checked "serve" !kls !base

(* Per-request daemon phases from the access log, keyed by request id. *)

let access_phases path =
  let phases = Hashtbl.create 4096 in
  let add line =
    if line <> "" then
      let j = Json.of_string line in
      let f k = Option.fold ~none:0. ~some:Json.to_float (Json.member k j) in
      match Json.member "id" j with
      | Some (Json.Int id) ->
          Hashtbl.replace phases id
            (f "queue_wait_ms", f "compute_ms", f "flush_ms", f "total_ms")
      | _ -> ()
  in
  (* Line by line: the log of a 30 s run is tens of MB. *)
  In_channel.with_open_text path (fun ic ->
      let rec go () = Option.iter (fun line -> add line; go ()) (In_channel.input_line ic) in
      go ());
  phases

let serve_layers ~sp ~inst ~model ~stream ~rounds ~access_log ~scrape =
  let metric k = Option.value (List.assoc_opt ("mrsl_" ^ k) scrape) ~default:0. in
  let per_round = float_of_int (List.length rounds) in
  let phases = access_phases access_log in
  let rows = ref [] and reload_ms = ref [] in
  (* Per request, the daemon's phases must add up to its total: both are
     intervals of CLOCK_MONOTONIC, so only float rounding (far below
     [rounding_ms]) separates them. The total should also fit inside the
     client's latency, but the daemon stamps the flush after its write
     returns, so a daemon descheduled or stopped for a GC right after the
     write reports a total longer than the client saw (README.md,
     "Latency decomposition"); at most [late_flush_pct] of the requests
     may do so. *)
  let rounding_ms = 1e-6 in
  let late = ref 0 and late_max = ref 0. in
  List.iter
    (fun r ->
      Array.iteri
        (fun i lat ->
          let id = r.base + i in
          match (Hashtbl.find_opt phases id, stream.(i)) with
          | Some (_, c, _, _), Reload -> reload_ms := c :: !reload_ms
          | Some (qw, c, fl, total), _ ->
              check
                (Float.abs (qw +. c +. fl -. total) <= rounding_ms)
                (fun () ->
                  Printf.sprintf "serve: request %d: queue %g + compute %g + flush %g <> total %g ms"
                    id qw c fl total);
              if total -. lat > rounding_ms then begin
                incr late;
                late_max := Float.max !late_max (total -. lat)
              end;
              rows := (lat, qw, c, fl, lat -. total) :: !rows
          | None, _ ->
              check false (fun () ->
                  Printf.sprintf "serve: request %d is missing from the access log" (r.base + i)))
        r.lat_ms)
    rounds;
  let late_pct = 100. *. float_of_int !late /. float_of_int (max 1 (List.length !rows)) in
  Printf.printf
    "decomposition: %d of %d requests (%.3f%%) have a daemon total above the client latency, by \
     up to %.4f ms\n"
    !late (List.length !rows) late_pct !late_max;
  check (late_pct <= late_flush_pct) (fun () ->
      Printf.sprintf "serve: %.3f%% of the requests have a daemon total above the client latency"
        late_pct);
  let col f = Array.of_list (List.map f !rows) in
  let client = col (fun (l, _, _, _, _) -> l)
  and queue = col (fun (_, q, _, _, _) -> q)
  and compute = col (fun (_, _, c, _, _) -> c)
  and flush = col (fun (_, _, _, f, _) -> f)
  and transport = col (fun (_, _, _, _, t) -> t) in
  let m xs = Prob.Stats.median (Array.to_list xs) in
  let parts = m queue +. m compute +. m flush +. m transport in
  let gap = 100. *. Float.abs (parts -. m client) /. m client in
  Printf.printf
    "decomposition: client p50 %.4f ms; queue %.4f + compute %.4f + flush %.4f + \
     transport %.4f = %.4f ms (gap %.1f%%)\n"
    (m client) (m queue) (m compute) (m flush) (m transport) parts gap;
  check (gap <= decomposition_tolerance_pct) (fun () ->
      Printf.sprintf "serve: the latency parts miss the client median by %.1f%%" gap);
  let schema = Relation.Instance.schema inst in
  let lines = Array.mapi (fun i r -> request_line schema i r) stream in
  for _ = 1 to 5 do
    Spans.with_span (Some sp) "protocol.parse" (fun () ->
        Array.iter
          (fun l -> ignore (Serving.Protocol.parse_request l : _ result))
          lines)
  done;
  let exact, gibbs = latencies stream rounds in
  layer_costs (Some sp) model
  @ [
      ("kernel.hit_ratio", ratio (metric "kernel_hits_total") (metric "kernel_fallback_total"), "ratio");
      ("gibbs.sweeps", metric "parallel_sweeps_total" /. per_round, "count");
      ( "gibbs.memo_hit_ratio",
        metric "gibbs_memo_hit_rate_sum" /. Float.max 1. (metric "gibbs_memo_hit_rate_count"),
        "ratio" );
      ("cache.hit_ratio", ratio (metric "cache_hits_total") (metric "cache_misses_total"), "ratio");
      ("cache.dedup_fanout", metric "cache_dedup_fanout_total" /. per_round, "count");
      ("cache.evictions", metric "cache_evictions_total" /. per_round, "count");
      ("cache.bytes", metric "cache_bytes_max", "B");
      ( "protocol.parse_us",
        self_median sp "protocol.parse" *. 1e6 /. float_of_int (Array.length lines),
        "us" );
      ("serve.queue_wait_ms_p99", tail_or_zero queue 0.99, "ms");
      ("serve.flush_wait_ms_p99", tail_or_zero flush 0.99, "ms");
      ( "serve.batch_size_mean",
        metric "serve_batch_size_sum" /. Float.max 1. (metric "serve_batch_size_count"),
        "count" );
      ("serve.transport_ms_p50", m transport, "ms");
      ("serve.compute_ms_p50", m compute, "ms");
      ("serve.compute_ms_p99", tail_or_zero compute 0.99, "ms");
      ("serve.decomposition_gap_pct", gap, "%");
      ( "engine.reload_ms",
        (match !reload_ms with [] -> 0. | l -> m (Array.of_list l)),
        "ms" );
      ("client.exact_p50_ms", m exact, "ms");
      ("client.exact_p99_ms", tail_or_zero exact 0.99, "ms");
      ("client.gibbs_p50_ms", m gibbs, "ms");
      ("client.gibbs_p99_ms", tail_or_zero gibbs 0.99, "ms");
      ("gc.minor_collections", metric "gc_minor_collections_total" /. per_round, "count");
      ("gc.major_collections", metric "gc_major_collections_total" /. per_round, "count");
      ("mem.allocated_mb", metric "mem_allocated_bytes_total" /. per_round /. 1048576., "MiB");
    ]

let run_serve ~cli ~seed ~seconds ~spans =
  let model_path = Filename.concat run_dir "model.mrsl" in
  let access_log =
    Option.map (fun _ -> Filename.concat run_dir "access.log") spans
  in
  (* Set-up: inputs, CSV, model save, and the daemon up to its first
     ping. Learning sits in the middle and is timed on its own. *)
  let theta = Mrsl.Model.default_params.support_threshold in
  let (net, inst, stream), t_inputs = timed (fun () -> serve_inputs ~seed ~spans) in
  let model = learn ~spans ~theta inst in
  let d, t_daemon =
    timed (fun () ->
        Mrsl.Model_io.save model_path model;
        spawn_daemon ~cli ~model_path ~seed ?access_log ())
  in
  record_setup (t_inputs +. t_daemon);
  (* The repeats start a second daemon on its own socket and model file,
     and stop it untimed. *)
  let resetup () =
    let spare_model = Filename.concat run_dir "spare.mrsl" in
    shutdown_daemon
      (setup (fun () ->
           ignore (serve_inputs ~seed ~spans);
           Mrsl.Model_io.save spare_model model;
           spawn_daemon ~cli ~model_path:spare_model ~seed ~sock:"spare.sock" ()))
  in
  let schema = Relation.Instance.schema inst in
  let q = Array.length stream in
  let rounds = ref [] and round_times = ref [] in
  let n_rounds = rounds_for seconds serve_round_s in
  for k = 0 to n_rounds - 1 do
    resetups ~rounds:n_rounds k resetup;
    relearns ~rounds:n_rounds k (fun () -> learn ~spans ~theta inst);
    let base = k * q in
    let lines = Array.mapi (fun i r -> request_line schema (base + i) r) stream in
    let raw, sent, recvd, dt = serve_round d.conn lines in
    ok timed_ops q;
    round_times := dt :: !round_times;
    let lat_ms = Array.init q (fun i -> float_of_int (recvd.(i) - sent.(i)) /. 1e6) in
    rounds := { base; raw; lat_ms } :: !rounds;
    Option.iter
      (fun sp ->
        Array.iteri
          (fun i s ->
            Spans.add sp ~req:(base + i) "client.request" ~start_ns:s ~stop_ns:recvd.(i))
          sent)
      spans
  done;
  let rounds = List.rev !rounds in
  let peak_rss_mb = vm_hwm_mib (string_of_int d.pid) in
  let scrape =
    match spans with
    | None -> []
    | Some _ ->
        Response.exposition
          (Serving.Client.scrape_metrics ~timeout:60. (Serving.Protocol.Unix_socket d.sock))
  in
  shutdown_daemon d;
  let mean_kl = check_serve ~seed ~net ~inst ~model_path ~epoch0:d.epoch0 stream rounds in
  let exact, gibbs = latencies stream rounds in
  let infers = Array.fold_left (fun n r -> if r = Reload then n else n + 1) 0 stream in
  {
    e2e =
      e2e ~setup_s:(setup_s ()) ~learn_s:(learn_s ())
        ~tuples_per_s:
          (float_of_int (infers * n_rounds) /. List.fold_left ( +. ) 0. !round_times)
        ~mean_kl ~peak_rss_mb;
    latency =
      [
        ("exact_p50_ms", Prob.Stats.median (Array.to_list exact), "ms");
        ("exact_p99_ms", tail_or_zero exact 0.99, "ms");
        ("gibbs_p50_ms", Prob.Stats.median (Array.to_list gibbs), "ms");
        ("gibbs_p99_ms", tail_or_zero gibbs 0.99, "ms");
      ];
    layers =
      (match (spans, access_log) with
      | Some sp, Some access_log ->
          serve_layers ~sp ~inst ~model ~stream ~rounds ~access_log ~scrape
      | _ -> []);
  }

(* ------------------------------------------------------------------ *)
(* Entry point *)

(* Every per-layer metric, in BENCHMARK.json order. A workload that does
   not pass through a layer reports 0 for it. *)
let per_layer =
  [
    ("relation.csv_read_s", "s"); ("mining.mine_s", "s");
    ("mining.itemsets", "count"); ("model.build_s", "s");
    ("model.meta_rules", "count"); ("kernel.compile_s", "s");
    ("kernel.hit_ratio", "ratio"); ("infer.task_us_p50", "us");
    ("infer.task_us_p99", "us"); ("voting.voters_per_task", "count");
    ("infer.alloc_bytes_per_task", "B"); ("gibbs.sweeps", "count");
    ("gibbs.memo_hit_ratio", "ratio"); ("gibbs.alloc_bytes_per_sweep", "B");
    ("dag.build_s", "s"); ("dag.shared_ratio", "ratio");
    ("parallel.run_s", "s"); ("parallel.utilization", "ratio");
    ("parallel.steals", "count"); ("probdb.blocks_s", "s");
    ("cache.hit_ratio", "ratio"); ("cache.dedup_fanout", "count");
    ("cache.evictions", "count"); ("cache.bytes", "B");
    ("protocol.parse_us", "us"); ("serve.queue_wait_ms_p99", "ms");
    ("serve.flush_wait_ms_p99", "ms"); ("serve.batch_size_mean", "count");
    ("serve.transport_ms_p50", "ms"); ("serve.compute_ms_p50", "ms");
    ("serve.compute_ms_p99", "ms"); ("serve.decomposition_gap_pct", "%");
    ("engine.reload_ms", "ms"); ("client.exact_p50_ms", "ms");
    ("client.exact_p99_ms", "ms"); ("client.gibbs_p50_ms", "ms");
    ("client.gibbs_p99_ms", "ms"); ("gc.minor_collections", "count");
    ("gc.major_collections", "count"); ("mem.allocated_mb", "MiB");
    ("trace.overhead_pct", "%");
  ]

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string ~pretty:false
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, v, u) ->
                  (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                metrics) );
       ])

let print_metrics title (ms : metric list) =
  List.iter (fun (n, v, u) -> Printf.printf "%s %-16s %14.6g %s\n" title n v u) ms

(* The same arguments untraced, in a child process; its end-to-end
   metrics are the baseline of the tracing overhead. *)
let untraced_child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ((Sys.executable_name :: args) @ [ "--trace"; "0" ]) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  children := pid :: !children;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  let status = reap ~grace:180. pid in
  let last =
    List.fold_left (fun acc l -> if l = "" then acc else l) "" (String.split_on_char '\n' out)
  in
  match (status, Json.of_string last) with
  | Unix.WEXITED 0, j -> (
      check (Json.member "correct" j = Some (Json.Bool true)) (fun () ->
          "trace: the untraced run failed its checks");
      match Json.member "metrics" j with
      | Some (Json.Obj ms) ->
          List.filter_map
            (fun (n, v) -> Option.map (fun v -> (n, Json.to_float v)) (Json.member "value" v))
            ms
      | _ -> [])
  | _ | (exception Json.Parse_error _) -> failwith "trace: the untraced run failed"

(* Traced minus untraced, printed per end-to-end metric; returns the
   share of throughput the tracing cost, in percent. *)
let overhead untraced (traced : metric list) =
  let value n = List.find_map (fun (m, v, _) -> if m = n then Some v else None) traced in
  List.iter
    (fun (n, b, u) ->
      match List.assoc_opt n untraced with
      | Some a ->
          Printf.printf "overhead %-14s untraced %12.6g  traced %12.6g  diff %+12.6g %s\n"
            n a b (b -. a) u
      | None -> ())
    traced;
  check
    (List.assoc_opt "mean_kl" untraced = value "mean_kl")
    (fun () -> "trace: mean_kl differs between the traced and untraced runs");
  match (List.assoc_opt "tuples_per_s" untraced, value "tuples_per_s") with
  | Some a, Some b when a > 0. -> 100. *. (a -. b) /. a
  | _ -> 0.

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cli = ref "_build/default/bin/mrsl_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "derive|impute|serve");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "nominal length of the timed phase");
      ("--trace", Arg.Set_int trace, "1 = traced run with per-layer metrics");
      ("--cli", Arg.Set_string cli, "path of the mrsl executable (serve)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "derive"; "impute"; "serve" ]) then begin
    prerr_endline "bench: --workload must be derive, impute or serve";
    exit 2
  end;
  at_exit cleanup;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Sys.mkdir run_dir 0o755;
  let spans = if !trace = 1 then Some (Spans.create ()) else None in
  let run () =
    let untraced =
      match spans with
      | None -> []
      | Some _ ->
          untraced_child
            [ "--workload"; !workload; "--seed"; string_of_int !seed; "--seconds";
              Printf.sprintf "%g" !seconds; "--cli"; !cli ]
    in
    let seed = !seed and seconds = !seconds in
    let r =
      match !workload with
      | "derive" -> run_derive ~seed ~seconds ~spans
      | "impute" -> run_impute ~seed ~seconds ~spans
      | _ -> run_serve ~cli:!cli ~seed ~seconds ~spans
    in
    (untraced, r)
  in
  match run () with
  | exception e ->
      fail timed_ops (Printexc.to_string e);
      List.iter (fun m -> Printf.printf "FAILED: %s\n" m) (List.rev !failures);
      let attempted, failed = totals () in
      print_endline (result_line ~correct:false ~attempted:(max 1 attempted) ~failed []);
      exit 1
  | untraced, r ->
      print_metrics "metric" r.e2e;
      print_metrics "latency" r.latency;
      let metrics =
        match spans with
        | None -> r.e2e
        | Some sp ->
            let given =
              r.layers
              @ [
                  ("relation.csv_read_s", self_median sp "relation.csv_read", "s");
                  ("kernel.compile_s", self_median sp "kernel.compile", "s");
                  ("trace.overhead_pct", overhead untraced r.e2e, "%");
                ]
            in
            let path = Printf.sprintf "%s/trace-%s-%d.json" out_dir !workload !seed in
            Spans.write sp path;
            Printf.printf "trace: %d spans -> %s\n" (List.length (Spans.spans sp)) path;
            List.map
              (fun (name, u) ->
                let v = List.find_map (fun (n, v, _) -> if n = name then Some v else None) given in
                (name, Option.value v ~default:0., u))
              per_layer
      in
      let metrics =
        List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u)) metrics
      in
      List.iter
        (fun p -> Printf.printf "phase %-6s attempted %d failed %d\n" p.pname p.attempted p.failed)
        (List.rev !phases);
      List.iter (fun m -> Printf.printf "FAILED: %s\n" m) (List.rev !failures);
      let attempted, failed = totals () in
      print_endline (result_line ~correct:(failed = 0) ~attempted ~failed metrics)
