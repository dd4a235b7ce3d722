(* In-memory spans around the benchmark's calls into each layer.

   Spans are kept in memory while the workload runs and written out once
   at the end (Chrome trace-event JSON, which Perfetto opens offline), so
   recording costs two clock reads and one allocation per span.  Only the
   benchmark's own domain records spans: a span's parent is whatever span
   was open when it started. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;  (** Seconds on the recorder's clock. *)
  stop : float;
}

type t = {
  now : unit -> float;
  origin : float;
  mutable on : bool;
  mutable spans : span list;  (** Newest first. *)
  mutable open_ : int list;  (** Stack of open span ids. *)
  mutable next : int;
}

let create ?(now = Unix.gettimeofday) () =
  { now; origin = now (); on = false; spans = []; open_ = []; next = 0 }

let set_enabled t on = t.on <- on
let spans t = List.rev t.spans

(* Run [f] inside a span named [name]; a no-op wrapper while disabled. *)
let with_span t name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.open_ with p :: _ -> Some p | [] -> None in
    t.open_ <- id :: t.open_;
    let start = t.now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = t.now () in
        t.open_ <- List.tl t.open_;
        t.spans <- { id; parent; name; start; stop } :: t.spans)
      f
  end

let duration s = s.stop -. s.start

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (acc, Some (ca, Float.max cb b))
          else (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let children_of spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter
        (fun p ->
          Hashtbl.replace tbl p
            (s :: Option.value ~default:[] (Hashtbl.find_opt tbl p)))
        s.parent)
    spans;
  fun id -> Option.value ~default:[] (Hashtbl.find_opt tbl id)

(* A span's self time: its duration minus the part of its interval that
   its child spans cover. *)
let self_times spans =
  let kids = children_of spans in
  List.map
    (fun s ->
      let c =
        covered ~lo:s.start ~hi:s.stop
          (List.map (fun k -> (k.start, k.stop)) (kids s.id))
      in
      (s, duration s -. c))
    spans

type row = { r_name : string; r_calls : int; r_total : float; r_self : float }

(* Per span name: calls, total and self seconds, largest self time first. *)
let table spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let c, tot, sf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (c + 1, tot +. duration s, sf +. self))
    (self_times spans);
  Hashtbl.fold
    (fun name (c, tot, sf) acc ->
      { r_name = name; r_calls = c; r_total = tot; r_self = sf } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match Float.compare b.r_self a.r_self with
         | 0 -> String.compare a.r_name b.r_name
         | c -> c)

(* Share of the time inside spans named [root] that their child spans
   cover: how much of a workload operation the layer spans account for. *)
let coverage spans ~root =
  let kids = children_of spans in
  let tot, cov =
    List.fold_left
      (fun (tot, cov) s ->
        if s.name <> root then (tot, cov)
        else
          ( tot +. duration s,
            cov
            +. covered ~lo:s.start ~hi:s.stop
                 (List.map (fun k -> (k.start, k.stop)) (kids s.id)) ))
      (0.0, 0.0) spans
  in
  if tot <= 0.0 then 0.0 else cov /. tot

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the recorder's creation. *)
let chrome_json t =
  let us x = (x -. t.origin) *. 1e6 in
  let events =
    List.map
      (fun s ->
        Printf.sprintf
          "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\
           \"dur\":%.3f,\"pid\":1,\"tid\":0,\"args\":{\"id\":%d,\"parent\":%s}}"
          (json_string s.name) (us s.start)
          (Float.max 0.0 (duration s *. 1e6))
          s.id
          (match s.parent with Some p -> string_of_int p | None -> "null"))
      (spans t)
  in
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
  ^ String.concat ",\n" events
  ^ "\n]}\n"
