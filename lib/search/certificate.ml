module Rat = Prelude.Rat

type t = {
  strategy : string;
  opt : int;
  alg : int;
  tags : Move.tag array;
  instance : Sched.Instance.t;
}

let ratio t = Rat.make t.opt t.alg

let v ~strategy ~opt ~alg ~tags instance =
  if alg < 1 then invalid_arg "Certificate.v: alg < 1";
  if opt < 0 then invalid_arg "Certificate.v: opt < 0";
  if Array.length tags <> Sched.Instance.n_requests instance then
    invalid_arg "Certificate.v: tags length <> request count";
  { strategy; opt; alg; tags; instance }

let of_prefix ~strategy ~n ~d ~opt ~alg prefix =
  let instance, tags = Game.realise ~n ~d prefix in
  v ~strategy:strategy.Game.name ~opt ~alg ~tags instance

module Line = Sched.Codec.Line

let header = "search-cert"

let render t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf header;
  Buffer.add_char buf ' ';
  Buffer.add_string buf Sched.Codec.version;
  Buffer.add_string buf " strategy=";
  Buffer.add_string buf t.strategy;
  Buffer.add_string buf " opt=";
  Line.add_int buf t.opt;
  Buffer.add_string buf " alg=";
  Line.add_int buf t.alg;
  Buffer.add_string buf " ratio=";
  Buffer.add_string buf (Rat.to_string (ratio t));
  Buffer.add_char buf '\n';
  Array.iteri
    (fun id tag ->
       match tag with
       | Move.Neutral -> ()
       | _ ->
         Buffer.add_string buf "tag ";
         Line.add_int buf id;
         Buffer.add_char buf ' ';
         Buffer.add_string buf (Move.tag_to_string tag);
         Buffer.add_char buf '\n')
    t.tags;
  Buffer.add_string buf (Sched.Codec.to_string t.instance);
  Buffer.contents buf

let ( let* ) = Result.bind

(* "search-cert rsp/1 <key>=<value> ...": strategy, opt and alg are
   required and ratio is optional, in any order; a repeated key's last
   value wins. *)
let parse_header line =
  let c = Line.cursor line in
  let rec fields strategy opt alg ratio =
    if Line.fields c = 0 then
      match strategy, opt, alg with
      | Some s, Some o, Some a -> (s, o, a, ratio)
      | _ -> Line.fail "missing strategy/opt/alg"
    else
      let i = Line.next c in
      let j = c.Line.pos - 1 in
      match String.index_from_opt line i '=' with
      | Some k when k < j ->
        let text () = String.sub line (k + 1) (j - k - 1) in
        let int what = Some (Line.int_at ~what line (k + 1) j) in
        (match String.sub line i (k - i) with
         | "strategy" -> fields (Some (text ())) opt alg ratio
         | "opt" -> fields strategy (int "opt") alg ratio
         | "alg" -> fields strategy opt (int "alg") ratio
         | "ratio" -> fields strategy opt alg (Some (text ()))
         | key -> Line.fail (Printf.sprintf "unknown field %S" key))
      | _ ->
        Line.fail
          (Printf.sprintf "expected key=value, got %S"
             (String.sub line i (j - i)))
  in
  if Line.word c <> header || Line.fields c = 0 then
    Error (Printf.sprintf "not a %s line: %S" header line)
  else
    let ver = Line.word c in
    if ver <> Sched.Codec.version then
      Error (Printf.sprintf "unsupported certificate version %S" ver)
    else
      match fields None None None None with
      | h -> Ok h
      | exception Line.Malformed m -> Error ("certificate header: " ^ m)

(* "tag <id> <tag>" *)
let parse_tag_line line =
  let c = Line.cursor line in
  c.Line.pos <- 4;
  if Line.fields c <> 2 then Error (Printf.sprintf "bad tag line %S" line)
  else
    match Line.int c ~what:"tag id" with
    | exception Line.Malformed m -> Error m
    | id ->
      let* tag = Move.tag_of_string (Line.rest c) in
      Ok (id, tag)

let parse s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> Error "empty certificate"
  | hd :: rest ->
    let* strategy, opt, alg, ratio_field = parse_header hd in
    let rec tags acc = function
      | line :: rest when String.starts_with ~prefix:"tag " line ->
        let* t = parse_tag_line line in
        tags (t :: acc) rest
      | rest -> Ok (List.rev acc, rest)
    in
    let* tag_list, body = tags [] rest in
    let* instance = Sched.Codec.of_string (String.concat "\n" body) in
    let n_requests = Sched.Instance.n_requests instance in
    let tags = Array.make n_requests Move.Neutral in
    let* () =
      List.fold_left
        (fun acc (id, tag) ->
           let* () = acc in
           if id < 0 || id >= n_requests then
             Error (Printf.sprintf "tag id %d out of range (%d requests)" id
                      n_requests)
           else begin
             tags.(id) <- tag;
             Ok ()
           end)
        (Ok ()) tag_list
    in
    if alg < 1 then Error "certificate claims alg < 1"
    else
      let t = { strategy; opt; alg; tags; instance } in
      (match ratio_field with
       | Some r when not (String.equal r (Rat.to_string (ratio t))) ->
         Error
           (Printf.sprintf "ratio field %s inconsistent with opt/alg %s" r
              (Rat.to_string (ratio t)))
       | _ -> Ok t)

let check ?metrics t =
  let* strat =
    match Game.strategy_of_name t.strategy with
    | Ok s -> Ok s
    | Error e -> Error e
  in
  let e = Game.evaluate_instance ?metrics strat t.instance t.tags in
  if not e.Game.agree then
    Error
      (Printf.sprintf
         "kernel and rebuild solvers disagree on the certified instance \
          (%s)" t.strategy)
  else if e.Game.alg <> t.alg then
    Error
      (Printf.sprintf "claimed alg=%d but %s served %d" t.alg t.strategy
         e.Game.alg)
  else if e.Game.opt <> t.opt then
    Error (Printf.sprintf "claimed opt=%d but OPT is %d" t.opt e.Game.opt)
  else begin
    (match Obs.Metrics.resolve metrics with
     | Some m -> Obs.Metrics.incr m "search.certificates"
     | None -> ());
    Ok ()
  end

let save ~path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
    output_string oc (render t))

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> parse s
  | exception Sys_error e -> Error e
