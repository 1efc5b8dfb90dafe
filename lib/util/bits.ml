let msb v =
  let x = ref v and p = ref 0 in
  if !x lsr 32 <> 0 then begin
    x := !x lsr 32;
    p := 32
  end;
  if !x lsr 16 <> 0 then begin
    x := !x lsr 16;
    p := !p + 16
  end;
  if !x lsr 8 <> 0 then begin
    x := !x lsr 8;
    p := !p + 8
  end;
  if !x lsr 4 <> 0 then begin
    x := !x lsr 4;
    p := !p + 4
  end;
  if !x lsr 2 <> 0 then begin
    x := !x lsr 2;
    p := !p + 2
  end;
  if !x lsr 1 <> 0 then !p + 1 else !p
