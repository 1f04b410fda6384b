(* Benchmark-side spans: a name, a start and an end on the monotonic
   clock, the span that was open when it started, and for serve requests
   the request id. Spans are kept in memory and written when the run
   ends, so recording one costs two clock reads and a cons. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  req : int;  (** request id, [-1] when the span is not a request *)
  start_ns : int;
  stop_ns : int;
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable open_ : int list;
}

let create () = { spans = []; next = 0; open_ = [] }

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

let current t = match t.open_ with p :: _ -> p | [] -> -1

let add t ?(req = -1) ?parent name ~start_ns ~stop_ns =
  let parent = Option.value parent ~default:(current t) in
  t.spans <- { id = fresh_id t; parent; name; req; start_ns; stop_ns } :: t.spans

(* [with_span (Some t) name f] times [f] as a child of the innermost
   open span; [with_span None] just calls [f], so untraced runs pay
   nothing. *)
let with_span t ?(req = -1) name f =
  match t with
  | None -> f ()
  | Some t ->
      let id = fresh_id t in
      let parent = current t in
      t.open_ <- id :: t.open_;
      let start_ns = Mrsl.Clock.now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let stop_ns = Mrsl.Clock.now_ns () in
          t.open_ <- List.tl t.open_;
          t.spans <- { id; parent; name; req; start_ns; stop_ns } :: t.spans)
        f

let spans t = List.rev t.spans

(* Append spans recorded by another recorder (another process), with
   their ids moved past this recorder's. *)
let import t spans =
  let offset = t.next in
  let shift id = if id < 0 then id else id + offset in
  List.iter
    (fun s ->
      t.spans <- { s with id = shift s.id; parent = shift s.parent } :: t.spans;
      t.next <- max t.next (shift s.id + 1))
    spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  fst
    (List.fold_left
       (fun (total, reach) (a, b) ->
         if b <= reach then (total, reach) else (total + (b - max a reach), b))
       (0, lo) clipped)

(* Self time of every span: its duration minus the part of it that its
   child spans cover. *)
let self_times t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    t.spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, s.stop_ns - s.start_ns - covered ~lo:s.start_ns ~hi:s.stop_ns kids))
    (spans t)

(* Self times of the spans called [name], in seconds, in start order. *)
let self_seconds t name =
  self_times t
  |> List.filter_map (fun (s, self) ->
         if s.name = name then Some (float_of_int self /. 1e9) else None)
  |> Array.of_list

(* Chrome trace-event JSON, loadable in Perfetto. *)
let write t path =
  let module Json = Mrsl.Telemetry.Json in
  let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int t.spans in
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("ts", us (s.start_ns - t0));
        ("dur", us (s.stop_ns - s.start_ns));
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("req", Json.Int s.req);
            ] );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_string ~pretty:false
           (Json.Obj [ ("traceEvents", Json.List (List.map event (spans t))) ])))
