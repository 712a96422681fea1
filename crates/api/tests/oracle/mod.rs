//! The tree codec that the wire writers and typed parsers replaced, kept as
//! the reference they are tested against. Each builder makes a `Json` tree
//! that `Json::to_text` serializes; each parser parses the whole text to a
//! tree before it looks at a field, so a grammar error anywhere comes
//! before any shape error. The code below the helpers is the library's
//! former `wire.rs`, unchanged.
//!
//! Integration tests cannot see a library's `#[cfg(test)]` items, so the
//! oracle lives here; each test binary that declares `mod oracle;` uses
//! its own part of it.
#![allow(dead_code)]

pub mod corpus;

use steam_api::wire as typed;
use steam_net::json::write_string;

use corpus::Rec;

/// A parse result both sides can be compared on: the records, or the error
/// variant (`Http` for a shape error; a grammar error is `Json` with its
/// offset and message, which the reader gives the same on both sides).
#[derive(Clone, Debug, PartialEq)]
pub enum Parsed {
    Summaries(Vec<Account>),
    Friends(Vec<(SteamId, SimTime)>),
    Games(Vec<OwnedGame>),
    Groups(Vec<GroupId>),
    GroupPage(Group),
    AppList(Vec<AppId>),
    AppDetails(Game),
    Achievements(Vec<Achievement>),
    Panel([u32; 7]),
}

pub type Outcome = Result<Parsed, String>;

fn outcome<T>(r: Result<T, NetError>, wrap: impl FnOnce(T) -> Parsed) -> Outcome {
    match r {
        Ok(v) => Ok(wrap(v)),
        Err(e @ NetError::Json { .. }) => Err(e.to_string()),
        Err(NetError::Http(_)) => Err("Http".into()),
        Err(e) => Err(format!("unexpected {e}")),
    }
}

/// A time as it comes back from the wire: through `f64`.
pub fn via_f64(t: SimTime) -> SimTime {
    SimTime::from_unix(t.unix() as f64 as i64)
}

impl Rec {
    /// The body the tree builders write for these records.
    pub fn oracle_text(&self) -> String {
        match self {
            Rec::Summaries(a) => player_summaries_response(&a.iter().collect::<Vec<_>>()).to_text(),
            Rec::Friends(f) => friend_list_response(f).to_text(),
            Rec::Games(g) => owned_games_response(g).to_text(),
            Rec::Groups(g) => group_list_response(g).to_text(),
            Rec::GroupPage(g) => group_page_response(g).to_text(),
            Rec::AppList(a) => app_list_response(a).to_text(),
            Rec::AppDetails(g) => app_details_response(g).to_text(),
            Rec::Achievements(a) => achievement_percentages_response(a).to_text(),
            Rec::Panel(d) => panel_response(d).to_text(),
        }
    }

    /// The body the library's writers write for these records.
    pub fn writer_text(&self) -> String {
        match self {
            Rec::Summaries(a) => typed::player_summaries_response(&a.iter().collect::<Vec<_>>()),
            Rec::Friends(f) => typed::friend_list_response(f),
            Rec::Games(g) => typed::owned_games_response(g),
            Rec::Groups(g) => typed::group_list_response(g),
            Rec::GroupPage(g) => typed::group_page_response(g),
            Rec::AppList(a) => typed::app_list_response(a),
            Rec::AppDetails(g) => typed::app_details_response(g),
            Rec::Achievements(a) => typed::achievement_percentages_response(a),
            Rec::Panel(d) => typed::panel_response(d),
        }
    }

    /// The tree of this record's body, for [`reshape`].
    pub fn tree(&self) -> Json {
        Json::parse(&self.oracle_text()).expect("the oracle writes JSON")
    }

    /// What parsing this record's body gives: the records themselves, with
    /// times taken through `f64`, app-list entries as their ids, and app
    /// details without achievements (those have their own endpoint).
    pub fn expected(&self) -> Parsed {
        match self.clone() {
            Rec::Summaries(mut a) => {
                for acct in &mut a {
                    acct.created_at = via_f64(acct.created_at);
                }
                Parsed::Summaries(a)
            }
            Rec::Friends(f) => {
                Parsed::Friends(f.into_iter().map(|(id, t)| (id, via_f64(t))).collect())
            }
            Rec::Games(g) => Parsed::Games(g),
            Rec::Groups(g) => Parsed::Groups(g),
            Rec::GroupPage(g) => Parsed::GroupPage(g),
            Rec::AppList(a) => Parsed::AppList(a.iter().map(|g| g.app_id).collect()),
            Rec::AppDetails(mut g) => {
                g.achievements.clear();
                g.release_date = via_f64(g.release_date);
                Parsed::AppDetails(g)
            }
            Rec::Achievements(a) => Parsed::Achievements(a),
            Rec::Panel(d) => Parsed::Panel(d),
        }
    }

    /// Reads `body` as this record's endpoint with the library's typed
    /// parser.
    pub fn typed(&self, body: &str) -> Outcome {
        match self {
            Rec::Summaries(_) => outcome(typed::parse_player_summaries(body), Parsed::Summaries),
            Rec::Friends(_) => outcome(typed::parse_friend_list(body), Parsed::Friends),
            Rec::Games(_) => outcome(typed::parse_owned_games(body), Parsed::Games),
            Rec::Groups(_) => outcome(typed::parse_group_list(body), Parsed::Groups),
            Rec::GroupPage(_) => outcome(typed::parse_group_page(body), Parsed::GroupPage),
            Rec::AppList(_) => outcome(typed::parse_app_list(body), Parsed::AppList),
            Rec::AppDetails(g) => {
                outcome(typed::parse_app_details(g.app_id, body), Parsed::AppDetails)
            }
            Rec::Achievements(_) => outcome(
                typed::parse_achievement_percentages(body),
                Parsed::Achievements,
            ),
            Rec::Panel(_) => outcome(typed::parse_panel(body), Parsed::Panel),
        }
    }

    /// Reads `body` as this record's endpoint with the oracle's tree
    /// parser.
    pub fn oracle(&self, body: &str) -> Outcome {
        match self {
            Rec::Summaries(_) => outcome(parse_player_summaries(body), Parsed::Summaries),
            Rec::Friends(_) => outcome(parse_friend_list(body), Parsed::Friends),
            Rec::Games(_) => outcome(parse_owned_games(body), Parsed::Games),
            Rec::Groups(_) => outcome(parse_group_list(body), Parsed::Groups),
            Rec::GroupPage(_) => outcome(parse_group_page(body), Parsed::GroupPage),
            Rec::AppList(_) => outcome(parse_app_list(body), Parsed::AppList),
            Rec::AppDetails(g) => outcome(parse_app_details(g.app_id, body), Parsed::AppDetails),
            Rec::Achievements(_) => {
                outcome(parse_achievement_percentages(body), Parsed::Achievements)
            }
            Rec::Panel(_) => outcome(parse_panel(body), Parsed::Panel),
        }
    }
}

/// Serializes `v` as `Json::to_text` would, but with each object's keys in
/// an order drawn from `rng` and whitespace between tokens: text the typed
/// parsers must read to the same records.
pub fn reshape(v: &Json, rng: &mut u64, out: &mut String) {
    space(rng, out);
    match v {
        Json::Obj(map) => {
            let mut entries: Vec<(&String, &Json)> = map.iter().collect();
            for i in (1..entries.len()).rev() {
                entries.swap(i, (next(rng) % (i as u64 + 1)) as usize);
            }
            out.push('{');
            for (i, (key, item)) in entries.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                space(rng, out);
                write_string(key, out);
                space(rng, out);
                out.push(':');
                reshape(item, rng, out);
            }
            space(rng, out);
            out.push('}');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reshape(item, rng, out);
            }
            space(rng, out);
            out.push(']');
        }
        scalar => out.push_str(&scalar.to_text()),
    }
    space(rng, out);
}

fn next(rng: &mut u64) -> u64 {
    // xorshift64; a zero state would stay zero.
    let mut x = (*rng).max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    x
}

fn space(rng: &mut u64, out: &mut String) {
    out.push_str(match next(rng) % 8 {
        0 => " ",
        1 => "\n",
        2 => "\t ",
        3 => "\r\n  ",
        _ => "",
    });
}

// --- the former wire.rs --------------------------------------------------------

use steam_model::{
    Account, Achievement, AppId, AppType, CountryCode, Game, GenreSet, Group, GroupId, GroupKind,
    OwnedGame, SimTime, SteamId, Visibility,
};
use steam_net::json::Json;
use steam_net::NetError;

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
            Ok(AppId(u32::try_from(get_u64(a, "appid")?).map_err(
                |_| NetError::Http("appid out of range".into()),
            )?))
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
            u8::try_from(
                v.as_u64()
                    .ok_or_else(|| NetError::Http("bad metacritic".into()))?,
            )
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
        return Err(NetError::Http(format!(
            "expected 7 days, got {}",
            arr.len()
        )));
    }
    let mut out = [0u32; 7];
    for (slot, item) in out.iter_mut().zip(arr) {
        *slot = u32::try_from(
            item.as_u64()
                .ok_or_else(|| NetError::Http("bad day minutes".into()))?,
        )
        .map_err(|_| NetError::Http("day minutes out of range".into()))?;
    }
    Ok(out)
}
