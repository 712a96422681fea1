//! The records behind the golden wire bodies in `tests/fixtures/wire/`:
//! every body the crawler tests' tiny world serves, then hand-made edge
//! records. The fixtures were written once from these records by the tree
//! builders, so the list and its order must not change without writing
//! them again.

use std::sync::Arc;

use steam_api::ShardStore;
use steam_model::{
    Account, Achievement, AppId, AppType, CountryCode, Game, GenreSet, Group, GroupId, GroupKind,
    OwnedGame, SimTime, SteamId, Visibility,
};
use steam_synth::{Generator, SynthConfig};

/// The records of one response body, by endpoint.
#[derive(Clone, Debug)]
pub enum Rec {
    Summaries(Vec<Account>),
    Friends(Vec<(SteamId, SimTime)>),
    Games(Vec<OwnedGame>),
    Groups(Vec<GroupId>),
    GroupPage(Group),
    AppList(Vec<Game>),
    AppDetails(Game),
    Achievements(Vec<Achievement>),
    Panel([u32; 7]),
}

impl Rec {
    /// The fixture file (under `tests/fixtures/wire/`, `.jsonl`) that holds
    /// this body, one body per line.
    pub fn file(&self) -> &'static str {
        match self {
            Rec::Summaries(_) => "summaries",
            Rec::Friends(_) => "friend_lists",
            Rec::Games(_) => "owned_games",
            Rec::Groups(_) => "group_lists",
            Rec::GroupPage(_) => "group_pages",
            Rec::AppList(_) => "app_list",
            Rec::AppDetails(_) => "app_details",
            Rec::Achievements(_) => "achievements",
            Rec::Panel(_) => "panel",
        }
    }
}

/// Every fixture file, in the order [`Rec::file`] names them.
pub const FILES: [&str; 9] = [
    "summaries",
    "friend_lists",
    "owned_games",
    "group_lists",
    "group_pages",
    "app_list",
    "app_details",
    "achievements",
    "panel",
];

/// A name holding a quote, a backslash, escaped and unescaped control
/// characters and non-ASCII text.
pub const TRICKY: &str =
    "Quote \" back \\ nl\n cr\r tab\t nul\u{0} bel\u{7} us\u{1f} del\u{7f} é 日本 😀";

/// Before 1970, and one past 2^53 seconds (which `f64` cannot hold: it is
/// written and read back as 2^53).
pub const BEFORE_1970: i64 = -86_400 * 365 - 1;
pub const PAST_2_53: i64 = (1 << 53) + 1;

/// The crawler tests' tiny world: `SynthConfig::small(91)` with 300 users,
/// 120 products and 25 groups, and its week panel.
pub fn tiny_world() -> (ShardStore, Vec<[u32; 7]>) {
    let mut cfg = SynthConfig::small(91);
    cfg.n_users = 300;
    cfg.n_products = 120;
    cfg.n_groups = 25;
    let snap = Arc::new(Generator::new(cfg).generate());
    let panel = steam_synth::panel::generate_panel(91, &snap, 1);
    let store = ShardStore::try_from((*snap).clone()).expect("a generated world is valid");
    (store, panel.daily_minutes)
}

fn edge_game(app: u32, name: &str, release: i64, metacritic: Option<u8>) -> Game {
    Game {
        app_id: AppId(app),
        name: name.to_string(),
        app_type: AppType::Tool,
        genres: GenreSet::from_bits(u16::MAX),
        price_cents: u32::MAX,
        multiplayer: true,
        release_date: SimTime::from_unix(release),
        metacritic,
        achievements: Vec::new(),
    }
}

/// Every body's records: the tiny world's, in serve order, then the edge
/// records.
pub fn corpus() -> Vec<Rec> {
    let (store, panel) = tiny_world();
    let mut out = Vec::new();
    for (u, acct) in store.accounts.iter().enumerate() {
        out.push(Rec::Summaries(vec![acct.clone()]));
        out.push(Rec::Friends(store.friends[u].clone()));
        out.push(Rec::Games(store.games[u].clone()));
        out.push(Rec::Groups(store.member_gids[u].clone()));
    }
    for chunk in store.accounts.chunks(100) {
        out.push(Rec::Summaries(chunk.iter().take(5).cloned().collect()));
    }
    for g in &store.groups {
        out.push(Rec::GroupPage(g.clone()));
    }
    out.push(Rec::AppList(store.catalog.clone()));
    for game in &store.catalog {
        out.push(Rec::AppDetails(game.clone()));
        out.push(Rec::Achievements(game.achievements.clone()));
    }
    for days in panel {
        out.push(Rec::Panel(days));
    }

    // Edge records.
    let anonymous = Account {
        id: SteamId::from_index(1),
        created_at: SimTime::from_unix(BEFORE_1970),
        visibility: Visibility::Private,
        country: None,
        city: None,
        level: 0,
        facebook_linked: false,
    };
    let extreme = Account {
        id: SteamId::from_u64(u64::MAX).expect("above the base"),
        created_at: SimTime::from_unix(PAST_2_53),
        visibility: Visibility::Public,
        country: Some(CountryCode::Other(225)),
        city: Some(u16::MAX),
        level: u16::MAX,
        facebook_linked: true,
    };
    out.push(Rec::Summaries(Vec::new()));
    out.push(Rec::Summaries(vec![anonymous.clone()]));
    out.push(Rec::Summaries(vec![extreme.clone(), anonymous]));
    out.push(Rec::Friends(Vec::new()));
    out.push(Rec::Friends(vec![
        (SteamId::from_index(0), SimTime::from_unix(BEFORE_1970)),
        (extreme.id, SimTime::from_unix(PAST_2_53)),
        (SteamId::from_index(7), SimTime::from_unix(0)),
    ]));
    out.push(Rec::Games(Vec::new()));
    out.push(Rec::Games(vec![
        OwnedGame {
            app_id: AppId(u32::MAX),
            playtime_forever_min: u32::MAX,
            playtime_2weeks_min: u32::MAX,
        },
        OwnedGame {
            app_id: AppId(0),
            playtime_forever_min: 0,
            playtime_2weeks_min: 0,
        },
    ]));
    out.push(Rec::Groups(Vec::new()));
    out.push(Rec::Groups(vec![GroupId(u32::MAX), GroupId(0)]));
    out.push(Rec::GroupPage(Group {
        id: GroupId(u32::MAX),
        kind: GroupKind::from_tag(5).unwrap(),
        name: TRICKY.into(),
    }));
    out.push(Rec::GroupPage(Group {
        id: GroupId(0),
        kind: GroupKind::from_tag(0).unwrap(),
        name: String::new(),
    }));
    let games = vec![
        edge_game(u32::MAX, TRICKY, BEFORE_1970, None),
        edge_game(0, "", PAST_2_53, Some(100)),
        edge_game(1, "zero", 0, Some(0)),
    ];
    out.push(Rec::AppList(Vec::new()));
    out.push(Rec::AppList(games.clone()));
    for game in games {
        out.push(Rec::AppDetails(game));
    }
    out.push(Rec::Achievements(Vec::new()));
    out.push(Rec::Achievements(
        [
            (TRICKY, 0.0f32),
            ("half", 12.5),
            ("third", 33.333),
            ("all", 100.0),
            ("", 1e-7),
        ]
        .into_iter()
        .map(|(name, pct)| Achievement {
            name: name.into(),
            global_completion_pct: pct,
        })
        .collect(),
    ));
    out.push(Rec::Panel([0; 7]));
    out.push(Rec::Panel([u32::MAX, 0, 1, 59, 60, 1440, u32::MAX - 1]));
    out
}
