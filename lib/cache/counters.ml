type t = {
  mutable refs_os : int;
  mutable refs_app : int;
  mutable os_cold : int;
  mutable os_self : int;
  mutable os_cross : int;
  mutable app_cold : int;
  mutable app_self : int;
  mutable app_cross : int;
}

let create () =
  {
    refs_os = 0;
    refs_app = 0;
    os_cold = 0;
    os_self = 0;
    os_cross = 0;
    app_cold = 0;
    app_self = 0;
    app_cross = 0;
  }

let reset t =
  t.refs_os <- 0;
  t.refs_app <- 0;
  t.os_cold <- 0;
  t.os_self <- 0;
  t.os_cross <- 0;
  t.app_cold <- 0;
  t.app_self <- 0;
  t.app_cross <- 0

let add dst src =
  dst.refs_os <- dst.refs_os + src.refs_os;
  dst.refs_app <- dst.refs_app + src.refs_app;
  dst.os_cold <- dst.os_cold + src.os_cold;
  dst.os_self <- dst.os_self + src.os_self;
  dst.os_cross <- dst.os_cross + src.os_cross;
  dst.app_cold <- dst.app_cold + src.app_cold;
  dst.app_self <- dst.app_self + src.app_self;
  dst.app_cross <- dst.app_cross + src.app_cross

let refs t = t.refs_os + t.refs_app

let os_misses t = t.os_cold + t.os_self + t.os_cross

let app_misses t = t.app_cold + t.app_self + t.app_cross

let misses t = os_misses t + app_misses t

let miss_rate t = Stats.ratio (misses t) (refs t)

let copy t = { t with refs_os = t.refs_os }
