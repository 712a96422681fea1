//! JSON wire shapes of the emulated Steam Web API endpoints.
//!
//! The layouts follow the real Steam Web API where the paper used it
//! (player summaries, friend lists, owned games, group lists, achievement
//! percentages) plus the storefront `appdetails` shape for catalog data.
//! Two small extensions carry fields the real API splits across extra
//! endpoints (`steamlevel`, `fblinked`) so one profile query round-trips an
//! account.
//!
//! Each body has one writer, which emits its text directly, and one typed
//! parser, which reads it back with steam-net's pull reader
//! ([`steam_net::json::Reader`]). Neither side builds a `Json` tree.
//!
//! - **Writers** emit the bytes a `Json` tree of the same body serializes
//!   to. Object keys come in sorted order, as the tree's `BTreeMap` kept
//!   them: a friend is `{"friend_since":…,"relationship":"friend","steamid":"…"}`.
//!   There is no whitespace. Keys are fixed ASCII and written as literals;
//!   every number and string goes through [`write_number`] and
//!   [`write_string`], so a time is an `i64` taken through `f64` (one past
//!   2^53 seconds is rounded) and escapes are the tree's.
//! - **Parsers** take keys in any order and any whitespace, skip unknown
//!   keys, and keep the tree parsers' numeric rules (`as_u64`, the `as`
//!   casts, `u32`/`u16::try_from`). A grammar error anywhere in the text is
//!   [`NetError::Json`], which the crawler retries as a corrupt body; it wins
//!   over a shape error ([`NetError::Http`]: a missing or mistyped field),
//!   which the crawler does not retry (see [`steam_net::json::read`]). A
//!   repeated key is read at each occurrence and the last one is kept, as
//!   in the tree; a shape error in an earlier occurrence still fails the
//!   body, where the tree looked at the last one only.
//! - **The oracle.** The tree builders and tree parsers these replaced live
//!   on under `tests/oracle/` as the reference. Golden bodies in
//!   `tests/fixtures/wire/`, written once by the tree builders, pin every
//!   writer byte for byte, and the equivalence suite holds every parser to
//!   the oracle's value or error variant on each single-byte flip and
//!   truncation of those bodies. The oracle parses through `Json::parse`,
//!   which shares the reader's tokenizer, so on grammar errors the suite
//!   shows the two parsers agree; `steam_net::json`'s own tests pin the
//!   messages and offsets themselves.

use std::borrow::Cow;

use steam_model::{
    Account, Achievement, AppId, AppType, CountryCode, Game, GenreSet, Group, GroupId, GroupKind,
    OwnedGame, SimTime, SteamId, Visibility,
};
use steam_net::json::{self, read, write_number, write_string, Kind, Reader};
use steam_net::NetError;

/// A response body as JSON text, borrowed in place. A body that is not
/// UTF-8 cannot be JSON: it fails as [`NetError::Json`] at its first invalid
/// byte, the corrupt-body error callers retry, instead of being read lossily
/// as a different value.
pub(crate) fn body_text(body: &[u8]) -> Result<&str, NetError> {
    std::str::from_utf8(body).map_err(|e| NetError::Json {
        offset: e.valid_up_to(),
        message: "invalid utf-8".into(),
    })
}

// --- writing -------------------------------------------------------------------

fn write_bool(b: bool, out: &mut String) {
    out.push_str(if b { "true" } else { "false" });
}

/// Writes `items` as a JSON array, each with `item`.
fn write_list<T>(items: &[T], out: &mut String, mut item: impl FnMut(&T, &mut String)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(x, out);
    }
    out.push(']');
}

// --- reading -------------------------------------------------------------------

fn shape(message: impl Into<String>) -> NetError {
    NetError::Http(message.into())
}

fn need<T>(slot: Option<T>, key: &str) -> Result<T, NetError> {
    slot.ok_or_else(|| shape(format!("missing field {key:?}")))
}

fn need_u64(slot: Option<f64>, key: &str) -> Result<u64, NetError> {
    json::as_u64(need(slot, key)?)
        .ok_or_else(|| shape(format!("field {key:?} is not a non-negative integer")))
}

/// An optional field: a value of another kind than `kind` reads as absent.
fn lenient<'a, T>(
    r: &mut Reader<'a>,
    kind: Kind,
    f: impl FnOnce(&mut Reader<'a>) -> Result<T, NetError>,
) -> Result<Option<T>, NetError> {
    if r.peek()? == kind {
        f(r).map(Some)
    } else {
        r.skip().map(|()| None)
    }
}

/// Reads an array, each element with `item`.
fn list<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, NetError>,
) -> Result<Vec<T>, NetError> {
    let mut out = Vec::new();
    r.arr(|r| {
        out.push(item(r)?);
        Ok(())
    })?;
    Ok(out)
}

/// Reads a body shaped `{"<outer>":{"<inner>":[…]}}`, the envelope of most
/// list endpoints, each element with `item`.
fn enveloped_list<'a, T>(
    body: &'a str,
    outer: &str,
    inner: &str,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, NetError>,
) -> Result<Vec<T>, NetError> {
    read(body, |r| {
        let mut envelope = None;
        r.obj(|key, r| {
            if key != outer {
                return r.skip();
            }
            let mut items = None;
            r.obj(|key, r| {
                if key == inner {
                    items = Some(list(r, &mut item)?);
                    Ok(())
                } else {
                    r.skip()
                }
            })?;
            envelope = Some(items);
            Ok(())
        })?;
        need(need(envelope, outer)?, inner)
    })
}

fn parse_steam_id(text: &str) -> Result<SteamId, NetError> {
    text.parse().map_err(|e| shape(format!("bad steamid: {e}")))
}

fn parse_gid(text: &str) -> Result<GroupId, NetError> {
    text.parse().map(GroupId).map_err(|_| shape("bad gid"))
}

fn app_id(slot: Option<f64>) -> Result<AppId, NetError> {
    u32::try_from(need_u64(slot, "appid")?)
        .map(AppId)
        .map_err(|_| shape("appid out of range"))
}

// --- player summaries -------------------------------------------------------

fn write_player(acct: &Account, out: &mut String) {
    out.push_str("{\"communityvisibilitystate\":");
    write_number(
        match acct.visibility {
            Visibility::Public => 3.0,
            Visibility::Private => 1.0,
        },
        out,
    );
    out.push_str(",\"fblinked\":");
    write_bool(acct.facebook_linked, out);
    if let Some(city) = acct.city {
        out.push_str(",\"loccityid\":");
        write_number(f64::from(city), out);
    }
    if let Some(c) = acct.country {
        out.push_str(",\"loccountrycode\":");
        write_string(&c.code(), out);
    }
    out.push_str(",\"steamid\":");
    write_string(&acct.id.to_string(), out);
    out.push_str(",\"steamlevel\":");
    write_number(f64::from(acct.level), out);
    out.push_str(",\"timecreated\":");
    write_number(acct.created_at.unix() as f64, out);
    out.push('}');
}

/// Full `GetPlayerSummaries` response.
pub fn player_summaries_response(accounts: &[&Account]) -> String {
    let mut out = String::with_capacity(32 + 180 * accounts.len());
    out.push_str("{\"response\":{\"players\":");
    write_list(accounts, &mut out, |a, out| write_player(a, out));
    out.push_str("}}");
    out
}

/// Reads one player object into an [`Account`].
fn player_summary(r: &mut Reader<'_>) -> Result<Account, NetError> {
    let (mut id, mut created, mut vis, mut level) = (None, None, None, None);
    let (mut country, mut city, mut fb) = (None, None, None);
    r.obj(|key, r| {
        match key {
            "steamid" => id = Some(r.str()?),
            "timecreated" => created = Some(r.num()?),
            "communityvisibilitystate" => vis = Some(r.num()?),
            "steamlevel" => level = Some(r.num()?),
            "loccountrycode" => country = lenient(r, Kind::Str, Reader::str)?,
            "loccityid" => city = lenient(r, Kind::Num, Reader::num)?.and_then(json::as_u64),
            "fblinked" => fb = lenient(r, Kind::Bool, Reader::bool)?,
            _ => r.skip()?,
        }
        Ok(())
    })?;
    let id = parse_steam_id(&need(id, "steamid")?)?;
    let created = need(created, "timecreated")? as i64;
    let visibility = match need_u64(vis, "communityvisibilitystate")? {
        3 => Visibility::Public,
        _ => Visibility::Private,
    };
    let country = match country {
        Some(code) => Some(
            CountryCode::from_code(&code)
                .ok_or_else(|| shape(format!("unknown country {code:?}")))?,
        ),
        None => None,
    };
    let city = city
        .map(|c| u16::try_from(c).map_err(|_| shape("city out of range")))
        .transpose()?;
    let level =
        u16::try_from(need_u64(level, "steamlevel")?).map_err(|_| shape("level out of range"))?;
    Ok(Account {
        id,
        created_at: SimTime::from_unix(created),
        visibility,
        country,
        city,
        level,
        facebook_linked: fb.unwrap_or(false),
    })
}

/// Parses a `GetPlayerSummaries` response body.
pub fn parse_player_summaries(body: &str) -> Result<Vec<Account>, NetError> {
    enveloped_list(body, "response", "players", player_summary)
}

// --- friend list -------------------------------------------------------------

/// `GetFriendList` response from `(friend id, friend_since)` pairs.
pub fn friend_list_response(friends: &[(SteamId, SimTime)]) -> String {
    let mut out = String::with_capacity(32 + 80 * friends.len());
    out.push_str("{\"friendslist\":{\"friends\":");
    write_list(friends, &mut out, |(id, since), out| {
        out.push_str("{\"friend_since\":");
        write_number(since.unix() as f64, out);
        out.push_str(",\"relationship\":\"friend\",\"steamid\":");
        write_string(&id.to_string(), out);
        out.push('}');
    });
    out.push_str("}}");
    out
}

/// Parses a `GetFriendList` response body.
pub fn parse_friend_list(body: &str) -> Result<Vec<(SteamId, SimTime)>, NetError> {
    enveloped_list(body, "friendslist", "friends", |r| {
        let (mut id, mut since) = (None, None);
        r.obj(|key, r| {
            match key {
                "steamid" => id = Some(r.str()?),
                "friend_since" => since = Some(r.num()?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let id = parse_steam_id(&need(id, "steamid")?)?;
        let since = need(since, "friend_since")? as i64;
        Ok((id, SimTime::from_unix(since)))
    })
}

// --- owned games ---------------------------------------------------------------

/// `GetOwnedGames` response.
pub fn owned_games_response(games: &[OwnedGame]) -> String {
    let mut out = String::with_capacity(48 + 64 * games.len());
    out.push_str("{\"response\":{\"game_count\":");
    write_number(games.len() as f64, &mut out);
    out.push_str(",\"games\":");
    write_list(games, &mut out, |o, out| {
        out.push_str("{\"appid\":");
        write_number(f64::from(o.app_id.0), out);
        out.push_str(",\"playtime_2weeks\":");
        write_number(f64::from(o.playtime_2weeks_min), out);
        out.push_str(",\"playtime_forever\":");
        write_number(f64::from(o.playtime_forever_min), out);
        out.push('}');
    });
    out.push_str("}}");
    out
}

fn owned_game(r: &mut Reader<'_>) -> Result<OwnedGame, NetError> {
    let (mut app, mut forever, mut two_weeks) = (None, None, None);
    r.obj(|key, r| {
        match key {
            "appid" => app = Some(r.num()?),
            "playtime_forever" => forever = Some(r.num()?),
            "playtime_2weeks" => two_weeks = Some(r.num()?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(OwnedGame {
        app_id: app_id(app)?,
        playtime_forever_min: need_u64(forever, "playtime_forever")? as u32,
        playtime_2weeks_min: need_u64(two_weeks, "playtime_2weeks")? as u32,
    })
}

/// Parses a `GetOwnedGames` response body.
pub fn parse_owned_games(body: &str) -> Result<Vec<OwnedGame>, NetError> {
    read(body, |r| {
        let mut response = None;
        r.obj(|key, r| {
            if key != "response" {
                return r.skip();
            }
            let (mut count, mut games) = (None, None);
            r.obj(|key, r| {
                match key {
                    "game_count" => count = Some(r.num()?),
                    "games" => games = Some(list(r, owned_game)?),
                    _ => r.skip()?,
                }
                Ok(())
            })?;
            response = Some((count, games));
            Ok(())
        })?;
        let (count, games) = need(response, "response")?;
        let games = need(games, "games")?;
        let declared = need_u64(count, "game_count")? as usize;
        if declared != games.len() {
            return Err(shape(format!(
                "game_count {declared} disagrees with {} entries",
                games.len()
            )));
        }
        Ok(games)
    })
}

// --- groups ---------------------------------------------------------------------

/// `GetUserGroupList` response.
pub fn group_list_response(gids: &[GroupId]) -> String {
    let mut out = String::with_capacity(48 + 16 * gids.len());
    out.push_str("{\"response\":{\"groups\":");
    write_list(gids, &mut out, |g, out| {
        out.push_str("{\"gid\":");
        write_string(&g.0.to_string(), out);
        out.push('}');
    });
    out.push_str(",\"success\":true}}");
    out
}

/// Parses a `GetUserGroupList` response body.
pub fn parse_group_list(body: &str) -> Result<Vec<GroupId>, NetError> {
    enveloped_list(body, "response", "groups", |r| {
        let mut gid = None;
        r.obj(|key, r| {
            if key == "gid" {
                gid = Some(r.str()?);
                Ok(())
            } else {
                r.skip()
            }
        })?;
        parse_gid(&need(gid, "gid")?)
    })
}

/// Group page (the community-site scrape analog that the paper used to
/// categorize groups manually).
pub fn group_page_response(group: &Group) -> String {
    let mut out = String::with_capacity(48 + group.name.len());
    out.push_str("{\"gid\":");
    write_string(&group.id.0.to_string(), &mut out);
    out.push_str(",\"kind\":");
    write_number(f64::from(group.kind.tag()), &mut out);
    out.push_str(",\"name\":");
    write_string(&group.name, &mut out);
    out.push('}');
    out
}

/// Parses a group page.
pub fn parse_group_page(body: &str) -> Result<Group, NetError> {
    read(body, |r| {
        let (mut gid, mut name, mut kind) = (None, None, None);
        r.obj(|key, r| {
            match key {
                "gid" => gid = Some(r.str()?),
                "name" => name = Some(r.str()?),
                "kind" => kind = Some(r.num()?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let id = parse_gid(&need(gid, "gid")?)?;
        let name = need(name, "name")?.into_owned();
        let kind = GroupKind::from_tag(need_u64(kind, "kind")? as u8)
            .ok_or_else(|| shape("bad group kind"))?;
        Ok(Group { id, kind, name })
    })
}

// --- catalog ---------------------------------------------------------------------

/// The unpublicized app-list endpoint the paper mentions.
pub fn app_list_response(apps: &[Game]) -> String {
    let mut out = String::with_capacity(32 + 48 * apps.len());
    out.push_str("{\"applist\":{\"apps\":");
    write_list(apps, &mut out, |g, out| {
        out.push_str("{\"appid\":");
        write_number(f64::from(g.app_id.0), out);
        out.push_str(",\"name\":");
        write_string(&g.name, out);
        out.push('}');
    });
    out.push_str("}}");
    out
}

/// Parses the app list into app ids.
pub fn parse_app_list(body: &str) -> Result<Vec<AppId>, NetError> {
    enveloped_list(body, "applist", "apps", |r| {
        let mut app = None;
        r.obj(|key, r| {
            if key == "appid" {
                app = Some(r.num()?);
                Ok(())
            } else {
                r.skip()
            }
        })?;
        app_id(app)
    })
}

/// Storefront `appdetails` response for one product (Big Picture shape).
pub fn app_details_response(g: &Game) -> String {
    let mut out = String::with_capacity(224 + g.name.len());
    out.push_str("{\"data\":{\"achievement_total\":");
    write_number(g.achievement_count() as f64, &mut out);
    out.push_str(",\"genre_bits\":");
    write_number(f64::from(g.genres.bits()), &mut out);
    out.push_str(",\"is_free\":");
    write_bool(g.price_cents == 0, &mut out);
    out.push_str(",\"metacritic\":");
    match g.metacritic {
        Some(m) => write_number(f64::from(m), &mut out),
        None => out.push_str("null"),
    }
    out.push_str(",\"multiplayer\":");
    write_bool(g.multiplayer, &mut out);
    out.push_str(",\"name\":");
    write_string(&g.name, &mut out);
    out.push_str(",\"price_cents\":");
    write_number(f64::from(g.price_cents), &mut out);
    out.push_str(",\"release_date\":");
    write_number(g.release_date.unix() as f64, &mut out);
    out.push_str(",\"type\":");
    write_string(g.app_type.as_str(), &mut out);
    out.push_str("},\"success\":true}");
    out
}

/// The fields of an `appdetails` `data` object, as read.
#[derive(Default)]
struct AppData<'a> {
    app_type: Option<Cow<'a, str>>,
    name: Option<Cow<'a, str>>,
    genre_bits: Option<f64>,
    price_cents: Option<f64>,
    multiplayer: Option<bool>,
    release_date: Option<f64>,
    /// Present, and `None` for `null`.
    metacritic: Option<Option<f64>>,
}

fn app_data<'a>(r: &mut Reader<'a>) -> Result<AppData<'a>, NetError> {
    let mut d = AppData::default();
    r.obj(|key, r| {
        match key {
            "type" => d.app_type = Some(r.str()?),
            "name" => d.name = Some(r.str()?),
            "genre_bits" => d.genre_bits = Some(r.num()?),
            "price_cents" => d.price_cents = Some(r.num()?),
            "multiplayer" => d.multiplayer = Some(r.bool()?),
            "release_date" => d.release_date = Some(r.num()?),
            "metacritic" => {
                d.metacritic = Some(match r.peek()? {
                    Kind::Null => r.null().map(|()| None)?,
                    _ => Some(r.num()?),
                });
            }
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(d)
}

/// Parses `appdetails` (without achievements, which come from their own
/// endpoint) into a [`Game`].
pub fn parse_app_details(app_id: AppId, body: &str) -> Result<Game, NetError> {
    read(body, |r| {
        let (mut success, mut data) = (None, None);
        r.obj(|key, r| {
            match key {
                "success" => success = lenient(r, Kind::Bool, Reader::bool)?,
                "data" => data = Some(app_data(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        if success != Some(true) {
            return Err(shape("appdetails success=false"));
        }
        let d = need(data, "data")?;
        let app_type = match need(d.app_type, "type")?.as_ref() {
            "game" => AppType::Game,
            "demo" => AppType::Demo,
            "trailer" => AppType::Trailer,
            "dlc" => AppType::Dlc,
            "tool" => AppType::Tool,
            other => return Err(shape(format!("unknown app type {other:?}"))),
        };
        let genres = GenreSet::from_bits(
            u16::try_from(need_u64(d.genre_bits, "genre_bits")?)
                .map_err(|_| shape("genre bits out of range"))?,
        );
        let metacritic = match need(d.metacritic, "metacritic")? {
            None => None,
            Some(n) => Some(
                u8::try_from(json::as_u64(n).ok_or_else(|| shape("bad metacritic"))?)
                    .map_err(|_| shape("metacritic out of range"))?,
            ),
        };
        Ok(Game {
            app_id,
            name: need(d.name, "name")?.into_owned(),
            app_type,
            genres,
            price_cents: need_u64(d.price_cents, "price_cents")? as u32,
            multiplayer: need(d.multiplayer, "multiplayer")?,
            release_date: SimTime::from_unix(need(d.release_date, "release_date")? as i64),
            metacritic,
            achievements: Vec::new(),
        })
    })
}

// --- achievements ------------------------------------------------------------------

/// `GetGlobalAchievementPercentagesForApp` response.
pub fn achievement_percentages_response(achievements: &[Achievement]) -> String {
    let mut out = String::with_capacity(48 + 48 * achievements.len());
    out.push_str("{\"achievementpercentages\":{\"achievements\":");
    write_list(achievements, &mut out, |a, out| {
        out.push_str("{\"name\":");
        write_string(&a.name, out);
        out.push_str(",\"percent\":");
        write_number(f64::from(a.global_completion_pct), out);
        out.push('}');
    });
    out.push_str("}}");
    out
}

/// Parses achievement percentages.
pub fn parse_achievement_percentages(body: &str) -> Result<Vec<Achievement>, NetError> {
    enveloped_list(body, "achievementpercentages", "achievements", |r| {
        let (mut name, mut percent) = (None, None);
        r.obj(|key, r| {
            match key {
                "name" => name = Some(r.str()?),
                "percent" => percent = Some(r.num()?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(Achievement {
            name: need(name, "name")?.into_owned(),
            global_completion_pct: need(percent, "percent")? as f32,
        })
    })
}

/// Daily playtime response for the week-panel collection (the paper's
/// Figure 12 sample was gathered by querying the same users once per day;
/// this endpoint emulates the collected result).
pub fn panel_response(days: &[u32; 7]) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"days\":");
    write_list(days, &mut out, |&m, out| write_number(f64::from(m), out));
    out.push('}');
    out
}

/// Parses a panel response.
pub fn parse_panel(body: &str) -> Result<[u32; 7], NetError> {
    read(body, |r| {
        let mut days = None;
        r.obj(|key, r| {
            if key == "days" {
                days = Some(list(r, Reader::num)?);
                Ok(())
            } else {
                r.skip()
            }
        })?;
        let days = need(days, "days")?;
        if days.len() != 7 {
            return Err(shape(format!("expected 7 days, got {}", days.len())));
        }
        let mut out = [0u32; 7];
        for (slot, n) in out.iter_mut().zip(days) {
            *slot = u32::try_from(json::as_u64(n).ok_or_else(|| shape("bad day minutes"))?)
                .map_err(|_| shape("day minutes out of range"))?;
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use steam_model::Genre;

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
        let body = player_summaries_response(&[&a]);
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
        let body = player_summaries_response(&[&a]);
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
            let body = player_summaries_response(&[&a]);
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
        let body = friend_list_response(&friends);
        assert_eq!(parse_friend_list(&body).unwrap(), friends);
    }

    #[test]
    fn owned_games_round_trip_and_count_check() {
        let games = vec![
            OwnedGame {
                app_id: AppId(10),
                playtime_forever_min: 100,
                playtime_2weeks_min: 5,
            },
            OwnedGame {
                app_id: AppId(20),
                playtime_forever_min: 0,
                playtime_2weeks_min: 0,
            },
        ];
        let body = owned_games_response(&games);
        assert_eq!(parse_owned_games(&body).unwrap(), games);
        // Tampered count is rejected.
        let bad = body.replace("\"game_count\":2", "\"game_count\":5");
        assert!(parse_owned_games(&bad).is_err());
    }

    #[test]
    fn group_list_and_page_round_trip() {
        let gids = vec![GroupId(100), GroupId(200)];
        let body = group_list_response(&gids);
        assert_eq!(parse_group_list(&body).unwrap(), gids);

        let g = Group {
            id: GroupId(7),
            kind: GroupKind::GameServer,
            name: "srv".into(),
        };
        let page = group_page_response(&g);
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
            achievements: vec![Achievement {
                name: "a".into(),
                global_completion_pct: 12.5,
            }],
        };
        let details = app_details_response(&g);
        let parsed = parse_app_details(g.app_id, &details).unwrap();
        assert_eq!(parsed.name, g.name);
        assert_eq!(parsed.genres, g.genres);
        assert_eq!(parsed.price_cents, g.price_cents);
        assert_eq!(parsed.multiplayer, g.multiplayer);
        assert_eq!(parsed.metacritic, g.metacritic);
        assert!(
            parsed.achievements.is_empty(),
            "achievements come separately"
        );

        let ach = achievement_percentages_response(&g.achievements);
        let parsed_ach = parse_achievement_percentages(&ach).unwrap();
        assert_eq!(parsed_ach, g.achievements);
    }

    #[test]
    fn app_list_round_trips() {
        let apps = vec![Game {
            app_id: AppId(10),
            name: "x".into(),
            app_type: AppType::Game,
            genres: GenreSet::EMPTY,
            price_cents: 0,
            multiplayer: false,
            release_date: SimTime::from_ymd(2009, 1, 1),
            metacritic: None,
            achievements: vec![],
        }];
        let body = app_list_response(&apps);
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
