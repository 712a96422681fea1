//! # steam-model
//!
//! Domain model for the *Condensing Steam* (IMC 2016) reproduction.
//!
//! This crate defines the entities the paper measures — accounts, friendships,
//! games, genres, groups, ownership/playtime records — plus the [`Snapshot`]
//! container that every other crate consumes, a compact binary codec for
//! persisting snapshots to disk, and [`WorldView`], the one way to walk a
//! world's per-user and edge sections, decoded or streamed from a v3 file.
//!
//! The types mirror what the Steam Web API exposes publicly (the paper used
//! nothing else): 64-bit Steam IDs, per-account profile data, reciprocal
//! friendships with creation timestamps, per-game total and rolling two-week
//! playtime in minutes, group memberships, and a storefront catalog with
//! genres, prices, multiplayer flags, and achievement completion percentages.

pub mod account;
pub mod codec;
pub mod country;
pub mod error;
pub mod game;
pub mod group;
pub mod id;
pub mod ownership;
pub mod reader;
pub mod snapshot;
pub mod time;
pub mod world;

pub use account::{Account, Visibility};
pub use country::CountryCode;
pub use error::ModelError;
pub use game::{Achievement, AppId, AppType, Game, Genre, GenreSet};
pub use group::{Group, GroupId, GroupKind};
pub use id::SteamId;
pub use ownership::{OwnedGame, MAX_TWO_WEEK_MINUTES};
pub use reader::{SectionReads, SnapshotReader};
pub use snapshot::{Friendship, Snapshot, WeekPanel};
pub use time::SimTime;
pub use world::WorldView;
