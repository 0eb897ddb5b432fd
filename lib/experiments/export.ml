let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let float_field v =
  if Float.is_nan v then "" else Printf.sprintf "%.6g" v

let csv_of_rows ~columns rows =
  let ncols = List.length columns in
  let buf = Buffer.create 1024 in
  let line fields =
    Buffer.add_string buf (String.concat "," (List.map escape_field fields));
    Buffer.add_char buf '\n'
  in
  line ("workload" :: columns);
  List.iter
    (fun (label, values) ->
      let n = List.length values in
      if n > ncols then invalid_arg "Export.csv_of_rows: too many values";
      let padded =
        List.map float_field values @ List.init (ncols - n) (fun _ -> "")
      in
      line (label :: padded))
    rows;
  Buffer.contents buf

let write_file ~path ~columns rows =
  Qaoa_journal.Atomic_write.write_string ~path (csv_of_rows ~columns rows)
