(* Tests for vp_machine: unit classes, machine descriptions, presets. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let op = Vp_ir.Operation.make

let test_unit_class_mapping () =
  let open Vp_machine.Unit_class in
  checkb "load -> mem" true (equal (of_opcode Vp_ir.Opcode.Load) Memory);
  checkb "store -> mem" true (equal (of_opcode Vp_ir.Opcode.Store) Memory);
  checkb "fmul -> float" true (equal (of_opcode Vp_ir.Opcode.Fmul) Float);
  checkb "branch -> branch" true (equal (of_opcode Vp_ir.Opcode.Branch) Branch);
  (* the paper's two rules: LdPred on an integer unit *)
  checkb "ldpred -> int" true (equal (of_opcode Vp_ir.Opcode.Ld_pred) Integer);
  checkb "cmp -> int" true (equal (of_opcode Vp_ir.Opcode.Cmp) Integer)

let test_unit_class_total () =
  List.iter
    (fun o ->
      checkb "every opcode has a class" true
        (List.mem (Vp_machine.Unit_class.of_opcode o) Vp_machine.Unit_class.all))
    Vp_ir.Opcode.all

let test_playdoh_presets () =
  List.iter
    (fun width ->
      let d = Vp_machine.Descr.playdoh ~width in
      checki "issue width" width (Vp_machine.Descr.issue_width d);
      checkb "has integer units" true
        (Vp_machine.Descr.units d Vp_machine.Unit_class.Integer > 0);
      checkb "has memory units" true
        (Vp_machine.Descr.units d Vp_machine.Unit_class.Memory > 0))
    [ 2; 4; 8; 16 ];
  checkb "width 3 rejected" true
    (try ignore (Vp_machine.Descr.playdoh ~width:3); false
     with Invalid_argument _ -> true)

let test_playdoh_scaling () =
  let d4 = Vp_machine.Descr.playdoh ~width:4 in
  let d8 = Vp_machine.Descr.playdoh ~width:8 in
  checkb "8-wide has more integer units" true
    (Vp_machine.Descr.units d8 Vp_machine.Unit_class.Integer
    > Vp_machine.Descr.units d4 Vp_machine.Unit_class.Integer);
  checkb "8-wide has more memory units" true
    (Vp_machine.Descr.units d8 Vp_machine.Unit_class.Memory
    > Vp_machine.Descr.units d4 Vp_machine.Unit_class.Memory)

let test_latencies () =
  let d = Vp_machine.Descr.playdoh ~width:4 in
  List.iter
    (fun o -> checkb "latency >= 1" true (Vp_machine.Descr.opcode_latency d o >= 1))
    Vp_ir.Opcode.all;
  checki "load latency" 3 (Vp_machine.Descr.opcode_latency d Vp_ir.Opcode.Load);
  checki "ldpred latency" 1
    (Vp_machine.Descr.opcode_latency d Vp_ir.Opcode.Ld_pred);
  checki "add latency" 1 (Vp_machine.Descr.opcode_latency d Vp_ir.Opcode.Add);
  (* [make] tabulates the latency function: every preset reads it back
     unchanged for every opcode. *)
  let table_matches d latency =
    List.for_all
      (fun o -> Vp_machine.Descr.opcode_latency d o = latency o)
      Vp_ir.Opcode.all
  in
  List.iter
    (fun width ->
      checkb "preset table = default_latency" true
        (table_matches (Vp_machine.Descr.playdoh ~width)
           Vp_machine.Descr.default_latency))
    Vp_machine.Descr.widths;
  checkb "example table = example_latency" true
    (table_matches Vp_machine.Descr.example_machine
       Vp_machine.Descr.example_latency)

let test_example_machine () =
  let d = Vp_machine.Descr.example_machine in
  (* the worked example: add, move, mul unit latency; loads latency 3 *)
  checki "mul is unit latency" 1
    (Vp_machine.Descr.opcode_latency d Vp_ir.Opcode.Mul);
  checki "load latency 3" 3
    (Vp_machine.Descr.opcode_latency d Vp_ir.Opcode.Load)

let test_make_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "zero units rejected" true (raises (fun () ->
      Vp_machine.Descr.make ~name:"bad"
        ~units:[ (Vp_machine.Unit_class.Integer, 0) ]
        ~latency:Vp_machine.Descr.default_latency ()));
  checkb "zero latency rejected" true (raises (fun () ->
      Vp_machine.Descr.make ~name:"bad"
        ~units:[ (Vp_machine.Unit_class.Integer, 1) ]
        ~latency:(fun _ -> 0)
        ()))

let test_fits () =
  let d = Vp_machine.Descr.playdoh ~width:4 in
  let load = op ~dst:1 ~srcs:[ 2 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load in
  let add = op ~dst:1 ~srcs:[ 2; 3 ] ~id:0 Vp_ir.Opcode.Add in
  let mem_used cls = if cls = Vp_machine.Unit_class.Memory then 1 else 0 in
  checkb "empty instruction accepts load" true
    (Vp_machine.Descr.fits d ~total:0 ~per_class:(fun _ -> 0) load);
  checkb "second load rejected (1 mem unit)" false
    (Vp_machine.Descr.fits d ~total:1 ~per_class:mem_used load);
  checkb "add still fits" true
    (Vp_machine.Descr.fits d ~total:1 ~per_class:mem_used add);
  checkb "issue width bound" false
    (Vp_machine.Descr.fits d ~total:4 ~per_class:(fun _ -> 0) add)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vp_machine"
    [
      ( "unit_class",
        [
          tc "mapping" test_unit_class_mapping;
          tc "total" test_unit_class_total;
        ] );
      ( "descr",
        [
          tc "playdoh presets" test_playdoh_presets;
          tc "playdoh scaling" test_playdoh_scaling;
          tc "latencies" test_latencies;
          tc "example machine" test_example_machine;
          tc "make validation" test_make_validation;
          tc "fits" test_fits;
        ] );
    ]
