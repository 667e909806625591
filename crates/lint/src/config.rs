//! `lint.toml` — the lint's declarative policy, checked in at the
//! workspace root.
//!
//! Parsed with a deliberately minimal line-based reader (same stance as
//! the hermetic pass: no TOML crate). Supported shapes:
//!
//! ```toml
//! [section]
//! key = ["a", "b"]          # string array
//! [section.map]
//! "quoted key" = 10         # string → integer map
//! ```

use std::collections::HashMap;
use std::path::Path;

/// The lint policy.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Lock rank table: `crate:field` → rank; nested acquisitions must
    /// strictly increase in rank.
    pub lock_ranks: HashMap<String, i64>,
    /// Files (workspace-relative) opaque to interprocedural lock
    /// propagation — the lock primitive's own internals, audited by the
    /// intra-function pass and the runtime detector instead.
    pub lock_exempt_files: Vec<String>,
    /// Event-loop root functions (`crate:fn` / `crate:Type::fn`) whose
    /// reachable callees must not block.
    pub nonblocking_roots: Vec<String>,
    /// Lock ids the nonblocking context may acquire (the event loop's own
    /// short-critical-section bridge).
    pub nonblocking_allow_locks: Vec<String>,
    /// Functions the nonblocking context must never call (render/query
    /// entry points that belong on workers).
    pub nonblocking_deny_calls: Vec<String>,
    /// Files (workspace-relative) exempt from the nonblocking pass.
    pub nonblocking_allow_files: Vec<String>,
}

/// A malformed `lint.toml`.
#[derive(Debug)]
pub struct ConfigError {
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Load `lint.toml` from `root`; defaults when the file is absent.
    pub fn load(root: &Path) -> Result<Config, Box<dyn std::error::Error>> {
        let path = root.join("lint.toml");
        if !path.is_file() {
            return Ok(Config::default());
        }
        let text = std::fs::read_to_string(&path)?;
        Ok(Config::parse(&text)?)
    }

    /// Parse the policy text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx as u32 + 1;
            let mut line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            // A `[` with no closing `]` opens a multi-line array: fold the
            // following lines in until the bracket closes.
            while line.contains('[') && !line.contains(']') {
                let Some((_, next)) = lines.next() else {
                    return Err(ConfigError { line: lineno, message: "unclosed array".to_string() });
                };
                line.push(' ');
                line.push_str(strip_comment(next).trim());
            }
            if let Some(header) = line.strip_prefix('[') {
                section = header.trim_end_matches(']').trim().to_string();
                continue;
            }
            let Some((key, value)) = split_kv(&line) else {
                return Err(ConfigError { line: lineno, message: format!("expected `key = value`, got {line:?}") });
            };
            match (section.as_str(), key.as_str()) {
                ("locks", "exempt_files") => {
                    config.lock_exempt_files = parse_string_array(&value, lineno)?;
                }
                ("nonblocking", "roots") => {
                    config.nonblocking_roots = parse_string_array(&value, lineno)?;
                }
                ("nonblocking", "allow_locks") => {
                    config.nonblocking_allow_locks = parse_string_array(&value, lineno)?;
                }
                ("nonblocking", "deny_calls") => {
                    config.nonblocking_deny_calls = parse_string_array(&value, lineno)?;
                }
                ("nonblocking", "allow_files") => {
                    config.nonblocking_allow_files = parse_string_array(&value, lineno)?;
                }
                ("locks.rank", _) => {
                    let rank = value.trim().parse::<i64>().map_err(|_| ConfigError {
                        line: lineno,
                        message: format!("rank for {key:?} must be an integer, got {value:?}"),
                    })?;
                    config.lock_ranks.insert(key, rank);
                }
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown setting [{section}] {key}"),
                    });
                }
            }
        }
        Ok(config)
    }

    /// The declared rank of a lock, if any.
    pub fn lock_rank(&self, lock: &str) -> Option<i64> {
        self.lock_ranks.get(lock).copied()
    }
}

/// Strip a trailing `# comment` (quote-aware).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return line.get(..i).unwrap_or(line),
            _ => {}
        }
    }
    line
}

/// Split `key = value` on the first `=` outside quotes; unquotes the key.
fn split_kv(line: &str) -> Option<(String, String)> {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '=' if !in_str => {
                let key = line.get(..i)?.trim().trim_matches('"').to_string();
                let value = line.get(i + 1..)?.trim().to_string();
                return Some((key, value));
            }
            _ => {}
        }
    }
    None
}

/// `["a", "b"]` → `vec!["a", "b"]` (single-line arrays only).
fn parse_string_array(value: &str, line: u32) -> Result<Vec<String>, ConfigError> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| ConfigError { line, message: format!("expected a [\"…\"] array, got {value:?}") })?;
    Ok(inner
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_sections() {
        let text = r#"
# policy
[locks]
exempt_files = ["crates/storage/src/sync.rs"]   # the primitive itself

[locks.rank]
"dashboard:jobs" = 10
"storage:inner" = 40

[nonblocking]
roots = ["dashboard:event_loop"]
allow_locks = ["dashboard:jobs", "dashboard:done"]
deny_calls = ["dashboard:Server::route"]
allow_files = ["crates/storage/src/sync.rs"]
"#;
        let c = Config::parse(text).expect("parses");
        assert_eq!(c.lock_rank("dashboard:jobs"), Some(10));
        assert_eq!(c.lock_rank("storage:inner"), Some(40));
        assert_eq!(c.lock_rank("nope"), None);
        assert_eq!(c.lock_exempt_files, vec!["crates/storage/src/sync.rs"]);
        assert_eq!(c.nonblocking_roots, vec!["dashboard:event_loop"]);
        assert_eq!(c.nonblocking_allow_locks, vec!["dashboard:jobs", "dashboard:done"]);
        assert_eq!(c.nonblocking_deny_calls, vec!["dashboard:Server::route"]);
        assert_eq!(c.nonblocking_allow_files, vec!["crates/storage/src/sync.rs"]);
    }

    #[test]
    fn multi_line_arrays_fold() {
        let text = "[nonblocking]\nroots = [\n    \"a:f\",  # serving tier\n    \"b:g\",\n]\n";
        let c = Config::parse(text).expect("parses");
        assert_eq!(c.nonblocking_roots, vec!["a:f", "b:g"]);
        assert!(Config::parse("[nonblocking]\nroots = [\n\"a:f\",\n").is_err());
    }

    #[test]
    fn unknown_and_retired_keys_are_errors() {
        assert!(Config::parse("[locks]\nmystery = [\"x\"]\n").is_err());
        assert!(Config::parse("[locks.rank]\n\"a:b\" = ten\n").is_err());
        // The sections clippy and the lockfile test replaced stay gone.
        assert!(Config::parse("[panic]\ndeny_crates = [\"x\"]\n").is_err());
        assert!(Config::parse("[determinism]\nallow = [\"x\"]\n").is_err());
        assert!(Config::parse("[hermetic]\nbanned = [\"x\"]\n").is_err());
    }

    #[test]
    fn empty_text_gives_defaults() {
        let c = Config::parse("").expect("parses");
        assert!(c.lock_ranks.is_empty() && c.nonblocking_roots.is_empty());
    }
}
