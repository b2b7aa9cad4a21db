let orientation a b c =
  let open Point in
  let v = cross (b -@ a) (c -@ a) in
  if v > 1e-12 then 1 else if v < -1e-12 then -1 else 0
