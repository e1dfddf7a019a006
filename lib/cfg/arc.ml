type id = int

type kind = Fallthrough | Taken

type t = { id : id; src : Block.id; dst : Block.id; kind : kind }
