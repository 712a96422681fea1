//! Property tests: for arbitrary records, every wire writer emits the text
//! the tree oracle (`oracle/`) serializes, and its typed parser reads that
//! text back to the records — and so does a re-serialization with each
//! object's keys permuted and whitespace between tokens.

mod oracle;

use proptest::collection::vec;
use proptest::prelude::*;

use oracle::corpus::Rec;
use steam_api::wire;
use steam_model::id::STEAM_ID_BASE;
use steam_model::{
    Account, Achievement, AppId, AppType, CountryCode, Game, GenreSet, Group, GroupId, GroupKind,
    OwnedGame, SimTime, SteamId, Visibility,
};

/// Names with quotes, backslashes, control characters and non-ASCII text.
const NAME: &str = "[a-zA-Z0-9 _:'&!\"\\\\\u{0}\u{1}\u{1f}\u{7f}\n\t\ré日😀-]{0,24}";

fn arb_id() -> impl Strategy<Value = SteamId> {
    (STEAM_ID_BASE..=u64::MAX).prop_map(|raw| SteamId::from_u64(raw).unwrap())
}

fn arb_account() -> impl Strategy<Value = Account> {
    (
        arb_id(),
        any::<i64>(),
        any::<bool>(),
        prop::option::of(0usize..CountryCode::universe_size()),
        prop::option::of(any::<u16>()),
        any::<u16>(),
        any::<bool>(),
    )
        .prop_map(|(id, t, public, country, city, level, fb)| Account {
            id,
            created_at: SimTime::from_unix(t),
            visibility: if public {
                Visibility::Public
            } else {
                Visibility::Private
            },
            country: country.map(|c| CountryCode::from_dense_index(c).unwrap()),
            city,
            level,
            facebook_linked: fb,
        })
}

fn arb_game() -> impl Strategy<Value = Game> {
    (
        any::<u32>(),
        NAME,
        0u8..5,
        any::<u16>(),
        any::<u32>(),
        any::<bool>(),
        any::<i64>(),
        prop::option::of(0u8..=100),
        vec((NAME, 0.0f32..100.0), 0..8),
    )
        .prop_map(|(app, name, ty, bits, price, mp, rel, meta, ach)| Game {
            app_id: AppId(app),
            name,
            app_type: AppType::from_tag(ty).unwrap(),
            genres: GenreSet::from_bits(bits),
            price_cents: price,
            multiplayer: mp,
            release_date: SimTime::from_unix(rel),
            metacritic: meta,
            achievements: ach
                .into_iter()
                .map(|(name, pct)| Achievement {
                    name,
                    global_completion_pct: pct,
                })
                .collect(),
        })
}

/// The writer's text is the oracle's, and it reads back to the records;
/// so does a reshaped copy, through both parsers.
fn check(rec: Rec, seed: u64) {
    let text = rec.writer_text();
    assert_eq!(text, rec.oracle_text(), "{rec:?}");
    let expected = Ok(rec.expected());
    assert_eq!(rec.typed(&text), expected, "{text}");
    let mut rng = seed;
    let mut reshaped = String::new();
    oracle::reshape(&rec.tree(), &mut rng, &mut reshaped);
    assert_eq!(rec.typed(&reshaped), expected, "{reshaped}");
    assert_eq!(rec.oracle(&reshaped), expected, "{reshaped}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn player_summaries_round_trip(accounts in vec(arb_account(), 0..20), seed in any::<u64>()) {
        check(Rec::Summaries(accounts), seed);
    }

    #[test]
    fn friend_lists_round_trip(friends in vec((arb_id(), any::<i64>()), 0..50), seed in any::<u64>()) {
        let list = friends.into_iter().map(|(id, t)| (id, SimTime::from_unix(t))).collect();
        check(Rec::Friends(list), seed);
    }

    #[test]
    fn owned_games_round_trip(
        games in vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..40),
        seed in any::<u64>(),
    ) {
        let list = games
            .into_iter()
            .map(|(a, f, w)| OwnedGame {
                app_id: AppId(a),
                playtime_forever_min: f,
                playtime_2weeks_min: w,
            })
            .collect();
        check(Rec::Games(list), seed);
    }

    #[test]
    fn group_lists_round_trip(gids in vec(any::<u32>(), 0..30), seed in any::<u64>()) {
        check(Rec::Groups(gids.into_iter().map(GroupId).collect()), seed);
    }

    #[test]
    fn app_details_round_trip(game in arb_game(), seed in any::<u64>()) {
        check(Rec::Achievements(game.achievements.clone()), seed);
        check(Rec::AppDetails(game), seed);
    }

    #[test]
    fn app_lists_round_trip(games in vec(arb_game(), 0..8), seed in any::<u64>()) {
        check(Rec::AppList(games), seed);
    }

    #[test]
    fn group_pages_round_trip(gid in any::<u32>(), tag in 0u8..6, name in NAME, seed in any::<u64>()) {
        let g = Group { id: GroupId(gid), kind: GroupKind::from_tag(tag).unwrap(), name };
        check(Rec::GroupPage(g), seed);
    }

    #[test]
    fn panels_round_trip(days in [any::<u32>(); 7], seed in any::<u64>()) {
        check(Rec::Panel(days), seed);
    }

    #[test]
    fn parsers_never_panic_on_garbage(body in "\\PC{0,200}") {
        let _ = wire::parse_player_summaries(&body);
        let _ = wire::parse_friend_list(&body);
        let _ = wire::parse_owned_games(&body);
        let _ = wire::parse_group_list(&body);
        let _ = wire::parse_group_page(&body);
        let _ = wire::parse_app_list(&body);
        let _ = wire::parse_app_details(AppId(1), &body);
        let _ = wire::parse_achievement_percentages(&body);
        let _ = wire::parse_panel(&body);
    }
}
