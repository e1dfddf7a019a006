type id = int

type t = { id : id; name : string; entry : Block.id; blocks : Block.id array }
