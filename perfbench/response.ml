(* Parsing of [mrsl serve] response lines and Prometheus exposition
   text. The timed loop only stores raw lines; everything here runs
   after it. Probabilities are read back with [float_of_string] on the
   daemon's round-trip digits, so they compare exactly with a local
   computation. *)

module Json = Mrsl.Telemetry.Json

type attr = {
  index : int;
  name : string;
  posterior : (string * float) list;  (** value label, probability *)
}

type t = {
  id : int option;
  ok : bool;
  kind : string;  (** [""] on an error line *)
  epoch : int option;
  mode : string option;  (** ["exact"] or ["gibbs"] on a posterior *)
  attrs : attr list;
}

let ( let* ) = Result.bind

let int_field name j =
  match Json.member name j with
  | Some (Json.Int n) -> Ok (Some n)
  | None | Some Json.Null -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S is not an integer" name)

let string_field name j =
  match Json.member name j with
  | Some (Json.String s) -> Ok (Some s)
  | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S is not a string" name)

let number = function
  | Json.Int n -> Ok (float_of_int n)
  | Json.Float f -> Ok f
  | _ -> Error "posterior entry is not a number"

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let attr_of_json j =
  let* index = int_field "index" j in
  let* name = string_field "attr" j in
  match (index, name, Json.member "posterior" j) with
  | Some index, Some name, Some (Json.Obj entries) ->
      let* posterior =
        map_result
          (fun (label, v) ->
            let* p = number v in
            Ok (label, p))
          entries
      in
      Ok { index; name; posterior }
  | _ -> Error "malformed attr entry"

let parse line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> Error ("not JSON: " ^ msg)
  | Json.Obj _ as j ->
      let* id = int_field "id" j in
      let* ok =
        match Json.member "ok" j with
        | Some (Json.Bool b) -> Ok b
        | _ -> Error "missing ok field"
      in
      let* kind = string_field "kind" j in
      let* epoch = int_field "epoch" j in
      let* mode = string_field "mode" j in
      let* attrs =
        match Json.member "attrs" j with
        | None -> Ok []
        | Some (Json.List l) -> map_result attr_of_json l
        | Some _ -> Error "attrs is not a list"
      in
      Ok { id; ok; kind = Option.value kind ~default:""; epoch; mode; attrs }
  | _ -> Error "not a JSON object"

(* Samples of a Prometheus text exposition: [name value] per line,
   labelled series keep their labels in the name. *)
let exposition text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i -> (
               let name = String.sub line 0 i in
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match float_of_string_opt v with
               | Some f -> Some (name, f)
               | None -> None))
