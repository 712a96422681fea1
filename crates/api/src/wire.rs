//! JSON wire shapes of the emulated Steam Web API endpoints.
//!
//! The layouts follow the real Steam Web API where the paper used it
//! (player summaries, friend lists, owned games, group lists, achievement
//! percentages) plus the storefront `appdetails` shape for catalog data.
//! Two small extensions carry fields the real API splits across extra
//! endpoints (`steamlevel`, `fblinked`) so one profile query round-trips an
//! account.

use steam_net::json::Json;
use steam_net::NetError;
use steam_model::{
    Account, Achievement, AppId, AppType, CountryCode, Game, Genre, GenreSet, Group, GroupId,
    GroupKind, OwnedGame, SimTime, SteamId, Visibility,
};

fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

fn get<'a>(v: &'a Json, key: &str) -> Result<&'a Json, NetError> {
    v.get(key)
        .ok_or_else(|| NetError::Http(format!("missing field {key:?}")))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, NetError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| NetError::Http(format!("field {key:?} is not a non-negative integer")))
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, NetError> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| NetError::Http(format!("field {key:?} is not a string")))
}

/// A response body as JSON text, borrowed in place. A body that is not
/// UTF-8 cannot be JSON: it fails as [`NetError::Json`] at its first invalid
/// byte, the corrupt-body error callers retry, instead of being read lossily
/// as a different value.
pub(crate) fn body_text(body: &[u8]) -> Result<&str, NetError> {
    std::str::from_utf8(body)
        .map_err(|e| NetError::Json { offset: e.valid_up_to(), message: "invalid utf-8".into() })
}

// --- player summaries -------------------------------------------------------

/// One player object inside `GetPlayerSummaries`.
pub fn player_summary_json(acct: &Account) -> Json {
    let mut obj = vec![
        ("steamid", Json::Str(acct.id.to_string())),
        ("timecreated", num(acct.created_at.unix() as f64)),
        (
            "communityvisibilitystate",
            num(match acct.visibility {
                Visibility::Public => 3.0,
                Visibility::Private => 1.0,
            }),
        ),
        ("steamlevel", num(f64::from(acct.level))),
        ("fblinked", Json::Bool(acct.facebook_linked)),
    ];
    if let Some(c) = acct.country {
        obj.push(("loccountrycode", Json::Str(c.code())));
    }
    if let Some(city) = acct.city {
        obj.push(("loccityid", num(f64::from(city))));
    }
    Json::obj(obj)
}

/// Parses one player object back into an [`Account`].
pub fn parse_player_summary(v: &Json) -> Result<Account, NetError> {
    let id: SteamId = get_str(v, "steamid")?
        .parse()
        .map_err(|e| NetError::Http(format!("bad steamid: {e}")))?;
    let created = get(v, "timecreated")?
        .as_f64()
        .ok_or_else(|| NetError::Http("bad timecreated".into()))? as i64;
    let vis = match get_u64(v, "communityvisibilitystate")? {
        3 => Visibility::Public,
        _ => Visibility::Private,
    };
    let country = match v.get("loccountrycode").and_then(Json::as_str) {
        Some(code) => Some(
            CountryCode::from_code(code)
                .ok_or_else(|| NetError::Http(format!("unknown country {code:?}")))?,
        ),
        None => None,
    };
    let city = v
        .get("loccityid")
        .and_then(Json::as_u64)
        .map(|c| u16::try_from(c).map_err(|_| NetError::Http("city out of range".into())))
        .transpose()?;
    let level = u16::try_from(get_u64(v, "steamlevel")?)
        .map_err(|_| NetError::Http("level out of range".into()))?;
    let facebook_linked = v.get("fblinked").and_then(Json::as_bool).unwrap_or(false);
    Ok(Account {
        id,
        created_at: SimTime::from_unix(created),
        visibility: vis,
        country,
        city,
        level,
        facebook_linked,
    })
}

/// Full `GetPlayerSummaries` response.
pub fn player_summaries_response(accounts: &[&Account]) -> Json {
    Json::obj([(
        "response",
        Json::obj([(
            "players",
            Json::Arr(accounts.iter().map(|a| player_summary_json(a)).collect()),
        )]),
    )])
}

/// Parses a `GetPlayerSummaries` response body.
pub fn parse_player_summaries(body: &str) -> Result<Vec<Account>, NetError> {
    let v = Json::parse(body)?;
    let players = get(get(&v, "response")?, "players")?
        .as_arr()
        .ok_or_else(|| NetError::Http("players is not an array".into()))?;
    players.iter().map(parse_player_summary).collect()
}

// --- friend list -------------------------------------------------------------

/// `GetFriendList` response from `(friend id, friend_since)` pairs.
pub fn friend_list_response(friends: &[(SteamId, SimTime)]) -> Json {
    Json::obj([(
        "friendslist",
        Json::obj([(
            "friends",
            Json::Arr(
                friends
                    .iter()
                    .map(|(id, since)| {
                        Json::obj([
                            ("steamid", Json::Str(id.to_string())),
                            ("relationship", Json::Str("friend".into())),
                            ("friend_since", num(since.unix() as f64)),
                        ])
                    })
                    .collect(),
            ),
        )]),
    )])
}

/// Parses a `GetFriendList` response body.
pub fn parse_friend_list(body: &str) -> Result<Vec<(SteamId, SimTime)>, NetError> {
    let v = Json::parse(body)?;
    let friends = get(get(&v, "friendslist")?, "friends")?
        .as_arr()
        .ok_or_else(|| NetError::Http("friends is not an array".into()))?;
    friends
        .iter()
        .map(|f| {
            let id: SteamId = get_str(f, "steamid")?
                .parse()
                .map_err(|e| NetError::Http(format!("bad steamid: {e}")))?;
            let since = get(f, "friend_since")?
                .as_f64()
                .ok_or_else(|| NetError::Http("bad friend_since".into()))?
                as i64;
            Ok((id, SimTime::from_unix(since)))
        })
        .collect()
}

// --- owned games ---------------------------------------------------------------

/// `GetOwnedGames` response.
pub fn owned_games_response(games: &[OwnedGame]) -> Json {
    Json::obj([(
        "response",
        Json::obj([
            ("game_count", num(games.len() as f64)),
            (
                "games",
                Json::Arr(
                    games
                        .iter()
                        .map(|o| {
                            Json::obj([
                                ("appid", num(f64::from(o.app_id.0))),
                                ("playtime_forever", num(f64::from(o.playtime_forever_min))),
                                ("playtime_2weeks", num(f64::from(o.playtime_2weeks_min))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    )])
}

/// Parses a `GetOwnedGames` response body.
pub fn parse_owned_games(body: &str) -> Result<Vec<OwnedGame>, NetError> {
    let v = Json::parse(body)?;
    let response = get(&v, "response")?;
    let games = get(response, "games")?
        .as_arr()
        .ok_or_else(|| NetError::Http("games is not an array".into()))?;
    let declared = get_u64(response, "game_count")? as usize;
    if declared != games.len() {
        return Err(NetError::Http(format!(
            "game_count {declared} disagrees with {} entries",
            games.len()
        )));
    }
    games
        .iter()
        .map(|g| {
            Ok(OwnedGame {
                app_id: AppId(
                    u32::try_from(get_u64(g, "appid")?)
                        .map_err(|_| NetError::Http("appid out of range".into()))?,
                ),
                playtime_forever_min: get_u64(g, "playtime_forever")? as u32,
                playtime_2weeks_min: get_u64(g, "playtime_2weeks")? as u32,
            })
        })
        .collect()
}

// --- groups ---------------------------------------------------------------------

/// `GetUserGroupList` response.
pub fn group_list_response(gids: &[GroupId]) -> Json {
    Json::obj([(
        "response",
        Json::obj([
            ("success", Json::Bool(true)),
            (
                "groups",
                Json::Arr(
                    gids.iter()
                        .map(|g| Json::obj([("gid", Json::Str(g.0.to_string()))]))
                        .collect(),
                ),
            ),
        ]),
    )])
}

/// Parses a `GetUserGroupList` response body.
pub fn parse_group_list(body: &str) -> Result<Vec<GroupId>, NetError> {
    let v = Json::parse(body)?;
    let groups = get(get(&v, "response")?, "groups")?
        .as_arr()
        .ok_or_else(|| NetError::Http("groups is not an array".into()))?;
    groups
        .iter()
        .map(|g| {
            let gid: u32 = get_str(g, "gid")?
                .parse()
                .map_err(|_| NetError::Http("bad gid".into()))?;
            Ok(GroupId(gid))
        })
        .collect()
}

/// Group page (the community-site scrape analog that the paper used to
/// categorize groups manually).
pub fn group_page_response(group: &Group) -> Json {
    Json::obj([
        ("gid", Json::Str(group.id.0.to_string())),
        ("name", Json::Str(group.name.clone())),
        ("kind", num(f64::from(group.kind.tag()))),
    ])
}

/// Parses a group page.
pub fn parse_group_page(body: &str) -> Result<Group, NetError> {
    let v = Json::parse(body)?;
    let id = GroupId(
        get_str(&v, "gid")?
            .parse()
            .map_err(|_| NetError::Http("bad gid".into()))?,
    );
    let name = get_str(&v, "name")?.to_string();
    let kind = GroupKind::from_tag(get_u64(&v, "kind")? as u8)
        .ok_or_else(|| NetError::Http("bad group kind".into()))?;
    Ok(Group { id, kind, name })
}

// --- catalog ---------------------------------------------------------------------

/// The unpublicized app-list endpoint the paper mentions.
pub fn app_list_response(apps: &[Game]) -> Json {
    Json::obj([(
        "applist",
        Json::obj([(
            "apps",
            Json::Arr(
                apps.iter()
                    .map(|g| {
                        Json::obj([
                            ("appid", num(f64::from(g.app_id.0))),
                            ("name", Json::Str(g.name.clone())),
                        ])
                    })
                    .collect(),
            ),
        )]),
    )])
}

/// Parses the app list into app ids.
pub fn parse_app_list(body: &str) -> Result<Vec<AppId>, NetError> {
    let v = Json::parse(body)?;
    let apps = get(get(&v, "applist")?, "apps")?
        .as_arr()
        .ok_or_else(|| NetError::Http("apps is not an array".into()))?;
    apps.iter()
        .map(|a| {
            Ok(AppId(
                u32::try_from(get_u64(a, "appid")?)
                    .map_err(|_| NetError::Http("appid out of range".into()))?,
            ))
        })
        .collect()
}

/// Storefront `appdetails` response for one product (Big Picture shape).
pub fn app_details_response(g: &Game) -> Json {
    let data = Json::obj([
        ("type", Json::Str(g.app_type.as_str().into())),
        ("name", Json::Str(g.name.clone())),
        ("genre_bits", num(f64::from(g.genres.bits()))),
        ("is_free", Json::Bool(g.price_cents == 0)),
        ("price_cents", num(f64::from(g.price_cents))),
        ("multiplayer", Json::Bool(g.multiplayer)),
        ("release_date", num(g.release_date.unix() as f64)),
        (
            "metacritic",
            match g.metacritic {
                Some(m) => num(f64::from(m)),
                None => Json::Null,
            },
        ),
        ("achievement_total", num(g.achievement_count() as f64)),
    ]);
    Json::obj([("success", Json::Bool(true)), ("data", data)])
}

/// Parses `appdetails` (without achievements, which come from their own
/// endpoint) into a [`Game`].
pub fn parse_app_details(app_id: AppId, body: &str) -> Result<Game, NetError> {
    let v = Json::parse(body)?;
    if v.get("success").and_then(Json::as_bool) != Some(true) {
        return Err(NetError::Http("appdetails success=false".into()));
    }
    let data = get(&v, "data")?;
    let app_type = match get_str(data, "type")? {
        "game" => AppType::Game,
        "demo" => AppType::Demo,
        "trailer" => AppType::Trailer,
        "dlc" => AppType::Dlc,
        "tool" => AppType::Tool,
        other => return Err(NetError::Http(format!("unknown app type {other:?}"))),
    };
    let genres = GenreSet::from_bits(
        u16::try_from(get_u64(data, "genre_bits")?)
            .map_err(|_| NetError::Http("genre bits out of range".into()))?,
    );
    let metacritic = match get(data, "metacritic")? {
        Json::Null => None,
        v => Some(
            u8::try_from(v.as_u64().ok_or_else(|| NetError::Http("bad metacritic".into()))?)
                .map_err(|_| NetError::Http("metacritic out of range".into()))?,
        ),
    };
    Ok(Game {
        app_id,
        name: get_str(data, "name")?.to_string(),
        app_type,
        genres,
        price_cents: get_u64(data, "price_cents")? as u32,
        multiplayer: get(data, "multiplayer")?
            .as_bool()
            .ok_or_else(|| NetError::Http("bad multiplayer".into()))?,
        release_date: SimTime::from_unix(
            get(data, "release_date")?
                .as_f64()
                .ok_or_else(|| NetError::Http("bad release_date".into()))? as i64,
        ),
        metacritic,
        achievements: Vec::new(),
    })
}

// --- achievements ------------------------------------------------------------------

/// `GetGlobalAchievementPercentagesForApp` response.
pub fn achievement_percentages_response(achievements: &[Achievement]) -> Json {
    Json::obj([(
        "achievementpercentages",
        Json::obj([(
            "achievements",
            Json::Arr(
                achievements
                    .iter()
                    .map(|a| {
                        Json::obj([
                            ("name", Json::Str(a.name.clone())),
                            ("percent", num(f64::from(a.global_completion_pct))),
                        ])
                    })
                    .collect(),
            ),
        )]),
    )])
}

/// Parses achievement percentages.
pub fn parse_achievement_percentages(body: &str) -> Result<Vec<Achievement>, NetError> {
    let v = Json::parse(body)?;
    let arr = get(get(&v, "achievementpercentages")?, "achievements")?
        .as_arr()
        .ok_or_else(|| NetError::Http("achievements is not an array".into()))?;
    arr.iter()
        .map(|a| {
            Ok(Achievement {
                name: get_str(a, "name")?.to_string(),
                global_completion_pct: get(a, "percent")?
                    .as_f64()
                    .ok_or_else(|| NetError::Http("bad percent".into()))?
                    as f32,
            })
        })
        .collect()
}

/// Daily playtime response for the week-panel collection (the paper's
/// Figure 12 sample was gathered by querying the same users once per day;
/// this endpoint emulates the collected result).
pub fn panel_response(days: &[u32; 7]) -> Json {
    Json::obj([(
        "days",
        Json::Arr(days.iter().map(|&m| num(f64::from(m))).collect()),
    )])
}

/// Parses a panel response.
pub fn parse_panel(body: &str) -> Result<[u32; 7], NetError> {
    let v = Json::parse(body)?;
    let arr = get(&v, "days")?
        .as_arr()
        .ok_or_else(|| NetError::Http("days is not an array".into()))?;
    if arr.len() != 7 {
        return Err(NetError::Http(format!("expected 7 days, got {}", arr.len())));
    }
    let mut out = [0u32; 7];
    for (slot, item) in out.iter_mut().zip(arr) {
        *slot = u32::try_from(
            item.as_u64().ok_or_else(|| NetError::Http("bad day minutes".into()))?,
        )
        .map_err(|_| NetError::Http("day minutes out of range".into()))?;
    }
    Ok(out)
}

// Genre is unused directly but kept for the doc link above.
#[allow(unused_imports)]
use Genre as _GenreDocOnly;

#[cfg(test)]
mod tests {
    use super::*;

    fn account() -> Account {
        Account {
            id: SteamId::from_index(42),
            created_at: SimTime::from_ymd(2010, 6, 1),
            visibility: Visibility::Public,
            country: Some(CountryCode::Poland),
            city: Some(17),
            level: 12,
            facebook_linked: true,
        }
    }

    #[test]
    fn player_summary_round_trips() {
        let a = account();
        let body = player_summaries_response(&[&a]).to_text();
        let parsed = parse_player_summaries(&body).unwrap();
        assert_eq!(parsed.len(), 1);
        let p = &parsed[0];
        assert_eq!(p.id, a.id);
        assert_eq!(p.created_at, a.created_at);
        assert_eq!(p.country, a.country);
        assert_eq!(p.city, a.city);
        assert_eq!(p.level, a.level);
        assert_eq!(p.facebook_linked, a.facebook_linked);
        assert_eq!(p.friend_cap(), a.friend_cap());
    }

    #[test]
    fn anonymous_profile_round_trips() {
        let mut a = account();
        a.country = None;
        a.city = None;
        a.visibility = Visibility::Private;
        let body = player_summaries_response(&[&a]).to_text();
        let p = &parse_player_summaries(&body).unwrap()[0];
        assert_eq!(p.country, None);
        assert_eq!(p.city, None);
        assert_eq!(p.visibility, Visibility::Private);
    }

    #[test]
    fn other_countries_round_trip() {
        for i in [0u8, 99, 100, 225] {
            let mut a = account();
            a.country = Some(CountryCode::Other(i));
            let body = player_summaries_response(&[&a]).to_text();
            let p = &parse_player_summaries(&body).unwrap()[0];
            assert_eq!(p.country, Some(CountryCode::Other(i)));
        }
    }

    #[test]
    fn friend_list_round_trips() {
        let friends = vec![
            (SteamId::from_index(1), SimTime::from_ymd(2011, 1, 2)),
            (SteamId::from_index(9), SimTime::from_ymd(2012, 3, 4)),
        ];
        let body = friend_list_response(&friends).to_text();
        assert_eq!(parse_friend_list(&body).unwrap(), friends);
    }

    #[test]
    fn owned_games_round_trip_and_count_check() {
        let games = vec![
            OwnedGame { app_id: AppId(10), playtime_forever_min: 100, playtime_2weeks_min: 5 },
            OwnedGame { app_id: AppId(20), playtime_forever_min: 0, playtime_2weeks_min: 0 },
        ];
        let body = owned_games_response(&games).to_text();
        assert_eq!(parse_owned_games(&body).unwrap(), games);
        // Tampered count is rejected.
        let bad = body.replace("\"game_count\":2", "\"game_count\":5");
        assert!(parse_owned_games(&bad).is_err());
    }

    #[test]
    fn group_list_and_page_round_trip() {
        let gids = vec![GroupId(100), GroupId(200)];
        let body = group_list_response(&gids).to_text();
        assert_eq!(parse_group_list(&body).unwrap(), gids);

        let g = Group { id: GroupId(7), kind: GroupKind::GameServer, name: "srv".into() };
        let page = group_page_response(&g).to_text();
        let parsed = parse_group_page(&page).unwrap();
        assert_eq!(parsed.id, g.id);
        assert_eq!(parsed.kind, g.kind);
        assert_eq!(parsed.name, g.name);
    }

    #[test]
    fn app_details_round_trip() {
        let g = Game {
            app_id: AppId(440),
            name: "Team Fortress 2".into(),
            app_type: AppType::Game,
            genres: GenreSet::new().with(Genre::Action),
            price_cents: 0,
            multiplayer: true,
            release_date: SimTime::from_ymd(2007, 10, 10),
            metacritic: Some(92),
            achievements: vec![Achievement { name: "a".into(), global_completion_pct: 12.5 }],
        };
        let details = app_details_response(&g).to_text();
        let parsed = parse_app_details(g.app_id, &details).unwrap();
        assert_eq!(parsed.name, g.name);
        assert_eq!(parsed.genres, g.genres);
        assert_eq!(parsed.price_cents, g.price_cents);
        assert_eq!(parsed.multiplayer, g.multiplayer);
        assert_eq!(parsed.metacritic, g.metacritic);
        assert!(parsed.achievements.is_empty(), "achievements come separately");

        let ach = achievement_percentages_response(&g.achievements).to_text();
        let parsed_ach = parse_achievement_percentages(&ach).unwrap();
        assert_eq!(parsed_ach, g.achievements);
    }

    #[test]
    fn app_list_round_trips() {
        let apps = vec![
            Game {
                app_id: AppId(10),
                name: "x".into(),
                app_type: AppType::Game,
                genres: GenreSet::EMPTY,
                price_cents: 0,
                multiplayer: false,
                release_date: SimTime::from_ymd(2009, 1, 1),
                metacritic: None,
                achievements: vec![],
            },
        ];
        let body = app_list_response(&apps).to_text();
        assert_eq!(parse_app_list(&body).unwrap(), vec![AppId(10)]);
    }

    #[test]
    fn malformed_bodies_rejected() {
        assert!(parse_player_summaries("{}").is_err());
        assert!(parse_friend_list("{\"friendslist\":{}}").is_err());
        assert!(parse_owned_games("not json").is_err());
        assert!(parse_group_list("{\"response\":{\"groups\":3}}").is_err());
        assert!(parse_app_details(AppId(1), "{\"success\":false}").is_err());
        assert!(parse_achievement_percentages("{}").is_err());
    }
}
