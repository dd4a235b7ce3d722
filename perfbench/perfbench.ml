(* The repository's benchmark: one command, four workloads.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --diff OLD.jsonl NEW.jsonl
     perfbench --list

   A run prints what it measured for people, then, as its last line, one
   JSON object: whether every correctness gate held, the operations
   attempted and failed, and the metrics BENCHMARK.json names —
   end-to-end ones untraced, per-layer ones traced.  Metric names and
   units come from BENCHMARK.json in the working directory.  A gate that
   fails makes the command exit 1. *)

module Json = Perfkit.Json
module Trace = Perfkit.Trace
module Diff = Perfkit.Diff
module W = Workloads

type metric = { m_name : string; m_unit : string; m_better : string; m_bound : float option }

type spec = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let read_spec path =
  let j = Json.parse (Json.read_file path) in
  let metrics key =
    List.map
      (fun m ->
        {
          m_name = Json.to_string (Json.field "name" m);
          m_unit = Json.to_string (Json.field "unit" m);
          m_better = Json.to_string (Json.field "better" m);
          m_bound = Option.map Json.to_float (Json.member "bound" m);
        })
      (Json.to_list (Json.field key j))
  in
  {
    workloads =
      List.map (fun w -> Json.to_string (Json.field "name" w)) (Json.to_list (Json.field "workloads" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* Fixed lane count, at most the machine's: the library's own default
   pool (used where no pool is passed) is sized to match. *)
let domains = min 2 (Domain.recommended_domain_count ())

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      find ())

let read_first_line path =
  match open_in path with
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_line ic)
  | exception Sys_error _ -> None

(* The checked-out commit, when the working directory is a git tree. *)
let commit () =
  match read_first_line ".git/HEAD" with
  | Some l when String.length l > 5 && String.sub l 0 5 = "ref: " ->
    Option.value ~default:"unknown"
      (read_first_line (".git/" ^ String.sub l 5 (String.length l - 5)))
  | Some l -> l
  | None -> "unknown (not a git checkout)"

let print_env ~workload ~seed ~seconds ~traced =
  Printf.printf "perfbench %s  seed %d  seconds %d  trace %d\n" workload seed seconds
    (if traced then 1 else 0);
  Printf.printf "env: nproc %d, domains %d, OCaml %s, commit %s\n%!"
    (Domain.recommended_domain_count ()) domains Sys.ocaml_version (commit ())

let run spec ~workload ~seed ~seconds ~traced =
  let f =
    match List.assoc_opt workload W.all with
    | Some f when List.mem workload spec.workloads -> f
    | _ -> die "unknown workload %s (known: %s)" workload (String.concat ", " spec.workloads)
  in
  print_env ~workload ~seed ~seconds ~traced;
  let tr = Trace.create ~now:Prete_util.Clock.now () in
  let r =
    Prete_exec.Pool.with_pool ~domains (fun pool ->
        f { W.pool; domains; seed; seconds = float_of_int seconds; traced; tr })
  in
  Printf.printf "operation walls (s):%s\n"
    (String.concat "" (List.map (Printf.sprintf " %.4f") r.W.op_walls));
  Printf.printf
    "host steal: %.4f of the machine's CPU time while measuring; %d operations run again for it\n"
    r.W.steal r.W.redone;
  List.iter (fun (k, v) -> Printf.printf "count %s %d\n" k v) r.W.counts;
  List.iter (fun (k, v) -> Printf.printf "digest %s %s\n" k v) r.W.digests;
  List.iter
    (fun (k, ok) -> Printf.printf "gate %s: %s\n" (if ok then "ok" else "FAILED") k)
    r.W.gates;
  let metrics =
    if not traced then begin
      List.iter (fun (k, v, u) -> Printf.printf "%s %.6g %s\n" k v u) r.W.named;
      let value = function
        | "setup_s" -> r.W.setup_s
        | "peak_rss_mb" -> peak_rss_mb ()
        | "ops_per_s" -> r.W.ops_per_s
        | "op_s_p50" -> r.W.op_s_p50
        | "delivered_share" -> r.W.delivered_share
        | m -> die "no end-to-end metric %s in the program" m
      in
      List.map (fun m -> (m, value m.m_name)) spec.end_to_end
    end
    else begin
      List.iter
        (fun (k, _) ->
          if not (List.exists (fun m -> m.m_name = k) spec.per_layer) then
            die "per-layer metric %s is not in BENCHMARK.json" k)
        r.W.layers;
      let spans = Trace.spans tr in
      Printf.printf "%-28s %8s %12s %12s\n" "span" "calls" "total_s" "self_s";
      List.iter
        (fun row ->
          Printf.printf "%-28s %8d %12.6f %12.6f\n" row.Trace.r_name row.Trace.r_calls
            row.Trace.r_total row.Trace.r_self)
        (Trace.table spans);
      Printf.printf "span coverage of %s wall: %.4f\n" r.W.cover_root
        (Trace.coverage spans ~root:r.W.cover_root);
      (match r.W.overhead with
      | Some o -> Printf.printf "tracing overhead (traced / untraced operation wall - 1): %+.4f\n" o
      | None -> print_endline "tracing overhead: not measured");
      let dir = ".perfbench" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Printf.sprintf "%s/trace-%s-%d.json" dir workload seed in
      Out_channel.with_open_bin path (fun oc -> output_string oc (Trace.chrome_json tr));
      Printf.printf "chrome trace: %s (%d spans)\n" path (List.length spans);
      List.map
        (fun m ->
          match List.assoc_opt m.m_name r.W.layers with
          | Some v -> (m, v)
          | None ->
            Printf.printf "layer %s: idle on %s (reported as 0)\n" m.m_name workload;
            (m, 0.0))
        spec.per_layer
    end
  in
  List.iter (fun (m, v) -> Printf.printf "metric %s %.6g %s\n" m.m_name v m.m_unit) metrics;
  let correct = List.for_all snd r.W.gates in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.W.attempted r.W.failed
    (String.concat ", "
       (List.map
          (fun (m, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Trace.json_string m.m_name)
              (Printf.sprintf "%.17g" v) (Trace.json_string m.m_unit))
          metrics));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Diff mode: result sets are JSON-lines files, one object per run:
   {"workload": NAME, "seed": N, "result": <a run's last line>}. *)

let read_set path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.filter (fun l -> String.trim l <> "")
      |> List.map Json.parse)

let diff spec old_path new_path =
  let old_set = read_set old_path and new_set = read_set new_path in
  let runs set w =
    List.filter (fun e -> Json.to_string (Json.field "workload" e) = w) set
  in
  let seed e = Option.map (fun s -> int_of_float (Json.to_float s)) (Json.member "seed" e) in
  let values set w name =
    List.filter_map
      (fun e ->
        let ms = Json.field "metrics" (Json.field "result" e) in
        Option.map (fun m -> (seed e, Json.to_float (Json.field "value" m))) (Json.member name ms))
      (runs set w)
  in
  let any_worse = ref false in
  Printf.printf "%-13s %-16s %32s %32s %9s  %s\n" "workload" "metric" "old median [q1, q3]"
    "new median [q1, q3]" "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          match (values old_set w m.m_name, values new_set w m.m_name) with
          | [], _ | _, [] -> Printf.printf "%-13s %-16s missing on one side\n" w m.m_name
          | o, n ->
            let better = Diff.better_of_string m.m_better in
            let bound = Option.value ~default:0.0 m.m_bound in
            let v, so, sn = Diff.verdict ~better ~bound ~old:o ~new_:n in
            if v = Diff.Worse then any_worse := true;
            let show (s : Diff.side) = Printf.sprintf "%.5g [%.5g, %.5g]" s.Diff.median s.Diff.q1 s.Diff.q3 in
            Printf.printf "%-13s %-16s %32s %32s %+8.2f%%  %s (n %d/%d, bound %.2f)\n" w m.m_name
              (show so) (show sn)
              ((sn.Diff.median -. so.Diff.median) /. so.Diff.median *. 100.0)
              (Diff.verdict_name v) so.Diff.n sn.Diff.n bound)
        spec.end_to_end;
      let counts set =
        List.map
          (fun e ->
            let r = Json.field "result" e in
            ( int_of_float (Json.to_float (Json.field "attempted" r)),
              int_of_float (Json.to_float (Json.field "failed" r)) ))
          (runs set w)
      in
      if runs old_set w <> [] && runs new_set w <> [] then begin
        let v, o, n = Diff.failed_verdict ~old:(counts old_set) ~new_:(counts new_set) in
        if v = Diff.Worse then any_worse := true;
        Printf.printf "%-13s %-16s %32.4g %32.4g %9s  %s\n" w "failed_share" o n ""
          (Diff.verdict_name v)
      end)
    spec.workloads;
  if !any_worse then exit 1

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref 0 in
  let diff_old = ref "" and diff_new = ref "" in
  let list = ref false in
  let args =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed");
      ("--seconds", Arg.Int (fun s -> seconds := Some s), "S run length");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ( "--diff",
        Arg.Tuple [ Arg.Set_string diff_old; Arg.Set_string diff_new ],
        "OLD NEW compare two result sets" );
      ("--list", Arg.Set list, " print the workload names");
    ]
  in
  Arg.parse args (fun a -> die "unexpected argument %s" a) "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    try read_spec "BENCHMARK.json" with
    | Sys_error e -> die "cannot read BENCHMARK.json: %s" e
    | Json.Error e -> die "BENCHMARK.json: %s" e
  in
  if !list then List.iter print_endline spec.workloads
  else if !diff_old <> "" then diff spec !diff_old !diff_new
  else
    match (!workload, !seed, !seconds) with
    | "", _, _ | _, None, _ | _, _, None -> die "--workload, --seed and --seconds are required"
    | w, Some s, Some sec ->
      if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
      if sec < 1 then die "--seconds must be positive";
      Unix.putenv "PRETE_DOMAINS" (string_of_int domains);
      run spec ~workload:w ~seed:s ~seconds:sec ~traced:(!trace = 1)
