//! Property-based tests for the model crate: identifier bijections and
//! codec round-trips under arbitrary inputs.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;

use steam_model::codec::{
    decode_panel, decode_snapshot, decode_snapshot_jobs, encode_panel, encode_snapshot_v3,
};
use steam_model::{
    Account, Achievement, AppId, AppType, CountryCode, Friendship, Game, Genre, GenreSet, Group,
    GroupId, GroupKind, OwnedGame, SimTime, Snapshot, SteamId, Visibility, WeekPanel,
};

fn arb_account(index: u64) -> impl Strategy<Value = Account> {
    (
        any::<i32>(),
        prop::option::of(0usize..CountryCode::universe_size()),
        prop::option::of(any::<u16>()),
        0u16..60,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(move |(t, country, city, level, fb, public)| Account {
            id: SteamId::from_index(index),
            created_at: SimTime::from_unix(i64::from(t)),
            visibility: if public { Visibility::Public } else { Visibility::Private },
            country: country.map(|c| CountryCode::from_dense_index(c).unwrap()),
            city,
            level,
            facebook_linked: fb,
        })
}

fn arb_game(app: u32) -> impl Strategy<Value = Game> {
    (
        "[a-zA-Z0-9 :']{0,30}",
        0u8..5,
        any::<u16>(),
        0u32..10_000,
        any::<bool>(),
        any::<i32>(),
        prop::option::of(0u8..=100),
        vec(("[a-z_]{1,12}", 0.0f32..100.0), 0..6),
    )
        .prop_map(move |(name, ty, bits, price, mp, rel, meta, ach)| Game {
            app_id: AppId(app),
            name,
            app_type: AppType::from_tag(ty).unwrap(),
            genres: GenreSet::from_bits(bits),
            price_cents: price,
            multiplayer: mp,
            release_date: SimTime::from_unix(i64::from(rel)),
            metacritic: meta,
            achievements: ach
                .into_iter()
                .map(|(name, pct)| Achievement { name, global_completion_pct: pct })
                .collect(),
        })
}

/// A deterministic snapshot whose shape is driven by the inputs; shared by
/// the v3 round-trip and corruption properties.
fn build_snapshot(accounts: &[u8], n_games: u32, seed: u64) -> Snapshot {
    let n = accounts.len() as u32;
    let mut snap = Snapshot {
        collected_at: SimTime::from_unix(seed as i64 % 1_000_000_000),
        scanned_id_space: u64::from(n) * 2,
        ..Snapshot::default()
    };
    for (i, a) in accounts.iter().enumerate() {
        snap.accounts.push(Account {
            id: SteamId::from_index(i as u64 * 2),
            created_at: SimTime::from_unix(i64::from(*a)),
            visibility: Visibility::Public,
            country: CountryCode::from_dense_index(*a as usize % 236),
            city: Some(u16::from(*a)),
            level: u16::from(*a % 10),
            facebook_linked: a % 2 == 0,
        });
        let mut lib = Vec::new();
        for g in 0..(*a % 4).min(n_games as u8) {
            let forever = u32::from(*a) * 13 + u32::from(g);
            lib.push(OwnedGame {
                app_id: AppId(u32::from(g) * 10),
                playtime_forever_min: forever,
                playtime_2weeks_min: forever.min(20_160) / 2,
            });
        }
        snap.ownerships.push(lib);
        snap.memberships.push(if a % 3 == 0 { vec![0] } else { vec![] });
    }
    for g in 0..n_games {
        snap.catalog.push(Game {
            app_id: AppId(g * 10),
            name: format!("g{g}"),
            app_type: AppType::Game,
            genres: GenreSet::new().with(Genre::Action),
            price_cents: g * 100,
            multiplayer: g % 2 == 0,
            release_date: SimTime::from_ymd(2010, 1, 1),
            metacritic: None,
            achievements: vec![],
        });
    }
    snap.groups.push(Group { id: GroupId(1), kind: GroupKind::SingleGame, name: "g".into() });
    if n >= 2 {
        snap.friendships.push(Friendship::new(0, 1, SimTime::from_unix(seed as i64 % 1000)));
    }
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn steam_id_bijection(index in 0u64..(1u64 << 33)) {
        let id = SteamId::from_index(index);
        let text = id.to_steam2();
        let back = SteamId::from_steam2(&text).unwrap();
        prop_assert_eq!(back, id);
        prop_assert_eq!(back.index(), index);
    }

    #[test]
    fn steam_id_display_parse(index in 0u64..(1u64 << 33)) {
        let id = SteamId::from_index(index);
        let back: SteamId = id.to_string().parse().unwrap();
        prop_assert_eq!(back, id);
    }

    #[test]
    fn genre_set_roundtrip(bits in any::<u16>()) {
        let s = GenreSet::from_bits(bits);
        let rebuilt: GenreSet = s.iter().collect();
        prop_assert_eq!(rebuilt, s);
        prop_assert_eq!(s.iter().count(), s.len());
    }

    #[test]
    fn snapshot_codec_roundtrip(
        accounts in vec(any::<u8>(), 1..12),
        n_games in 1u32..6,
        seed in any::<u64>(),
    ) {
        let snap = build_snapshot(&accounts, n_games, seed);
        let bytes = encode_snapshot_v3(&snap, 1);
        let d = decode_snapshot(bytes).unwrap();
        prop_assert_eq!(d.n_users(), snap.n_users());
        prop_assert_eq!(d.friendships, snap.friendships);
        prop_assert_eq!(d.ownerships, snap.ownerships);
        prop_assert_eq!(d.memberships, snap.memberships);
        prop_assert_eq!(d.collected_at, snap.collected_at);
        for (a, b) in d.accounts.iter().zip(&snap.accounts) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.country, b.country);
            prop_assert_eq!(a.level, b.level);
        }
    }

    #[test]
    fn chunked_codec_roundtrip(
        accounts in vec(any::<u8>(), 1..12),
        n_games in 1u32..6,
        seed in any::<u64>(),
        jobs in 1usize..5,
    ) {
        let snap = build_snapshot(&accounts, n_games, seed);
        let bytes = encode_snapshot_v3(&snap, jobs);
        // Parallel encode is byte-identical to serial encode.
        prop_assert_eq!(&bytes, &encode_snapshot_v3(&snap, 1));
        let d = decode_snapshot_jobs(bytes, jobs).unwrap();
        prop_assert_eq!(d.n_users(), snap.n_users());
        prop_assert_eq!(d.accounts, snap.accounts);
        prop_assert_eq!(d.friendships, snap.friendships);
        prop_assert_eq!(d.ownerships, snap.ownerships);
        prop_assert_eq!(d.memberships, snap.memberships);
        prop_assert_eq!(d.groups, snap.groups);
        prop_assert_eq!(d.catalog, snap.catalog);
        prop_assert_eq!(d.collected_at, snap.collected_at);
        prop_assert_eq!(d.scanned_id_space, snap.scanned_id_space);
    }

    #[test]
    fn chunked_rejects_any_corrupted_byte(
        accounts in vec(any::<u8>(), 1..6),
        seed in any::<u64>(),
        at_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let snap = build_snapshot(&accounts, 2, seed);
        let clean = encode_snapshot_v3(&snap, 1);
        let mut raw = clean.to_vec();
        let at = ((raw.len() - 1) as f64 * at_frac) as usize;
        raw[at] ^= flip;
        prop_assert!(decode_snapshot(Bytes::from(raw)).is_err(), "flip at {}", at);
    }

    #[test]
    fn decode_arbitrary_bytes_never_panics(data in vec(any::<u8>(), 0..256)) {
        // Corrupt input must produce Err, never panic or huge allocation.
        let _ = decode_snapshot(Bytes::from(data.clone()));
        // Same bytes presented as a sectioned (v2) and a chunked (v3)
        // container body.
        for header in [b"CSTM\x02", b"CSTM\x03"] {
            let mut raw = header.to_vec();
            raw.extend_from_slice(&data);
            let _ = decode_snapshot(Bytes::from(raw));
        }
        let _ = decode_panel(Bytes::from(data));
    }

    #[test]
    fn arb_games_roundtrip(games in vec(arb_game(7), 1..4)) {
        let mut snap = Snapshot { scanned_id_space: 0, ..Snapshot::default() };
        // Unique ascending ids.
        for (i, mut g) in games.into_iter().enumerate() {
            g.app_id = AppId(i as u32);
            snap.catalog.push(g);
        }
        let d = decode_snapshot(encode_snapshot_v3(&snap, 1)).unwrap();
        prop_assert_eq!(d.catalog, snap.catalog);
    }

    #[test]
    fn arb_accounts_roundtrip(acct in arb_account(3)) {
        let mut snap = Snapshot::default();
        snap.accounts.push(acct.clone());
        snap.ownerships.push(vec![]);
        snap.memberships.push(vec![]);
        snap.scanned_id_space = 10;
        let d = decode_snapshot(encode_snapshot_v3(&snap, 1)).unwrap();
        prop_assert_eq!(d.accounts[0].city, acct.city);
        prop_assert_eq!(d.accounts[0].country, acct.country);
        prop_assert_eq!(d.accounts[0].created_at, acct.created_at);
        prop_assert_eq!(d.accounts[0].friend_cap(), acct.friend_cap());
    }

    #[test]
    fn panel_roundtrip(rows in vec((any::<u32>(), [any::<u16>(); 7]), 0..20)) {
        let panel = WeekPanel {
            users: rows.iter().map(|(u, _)| *u).collect(),
            daily_minutes: rows
                .iter()
                .map(|(_, d)| {
                    let mut out = [0u32; 7];
                    for (o, v) in out.iter_mut().zip(d) {
                        *o = u32::from(*v);
                    }
                    out
                })
                .collect(),
        };
        let d = decode_panel(encode_panel(&panel)).unwrap();
        prop_assert_eq!(d.users, panel.users);
        prop_assert_eq!(d.daily_minutes, panel.daily_minutes);
    }
}
