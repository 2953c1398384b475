//! The global layout file.
//!
//! "Each process of the [simulation proxy] application then adds its
//! assigned IP address and port number to a globally accessible layout
//! file, then opens its port and waits for connection. The visualization
//! proxy application is then started. Each process … references the global
//! layout file, determines the location of the simulation proxy(s) it will
//! receive data from, waits for the corresponding port to open, and then
//! establishes the connection." (Section III-C)
//!
//! To make concurrent publication race-free without file locking, the
//! "layout file" is a directory: each rank writes `rank_<n>.addr`
//! atomically (write to temp + rename). A reader polls for the one entry
//! it needs ([`crate::socket::connect_to`]).

use crate::comm::{Result, TransportError};
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

/// Handle to a layout directory.
#[derive(Debug, Clone)]
pub struct LayoutFile {
    dir: PathBuf,
}

impl LayoutFile {
    /// Create (or reuse) the layout directory.
    pub fn create(dir: &Path) -> Result<LayoutFile> {
        fs::create_dir_all(dir)?;
        Ok(LayoutFile {
            dir: dir.to_path_buf(),
        })
    }

    fn entry_path(&self, rank: usize) -> PathBuf {
        self.dir.join(format!("rank_{rank:04}.addr"))
    }

    /// Publish this rank's address (atomic write).
    pub fn publish(&self, rank: usize, addr: SocketAddr) -> Result<()> {
        let tmp = self.dir.join(format!(".rank_{rank:04}.tmp"));
        fs::write(&tmp, addr.to_string())?;
        fs::rename(&tmp, self.entry_path(rank))?;
        Ok(())
    }

    /// Read one rank's published address, if present. An entry that is not
    /// an address (invalid UTF-8 included) is a bootstrap error.
    pub fn lookup(&self, rank: usize) -> Result<Option<SocketAddr>> {
        let path = self.entry_path(rank);
        match fs::read(&path) {
            Ok(bytes) => {
                let text = String::from_utf8_lossy(&bytes);
                let addr = text.trim().parse::<SocketAddr>().map_err(|e| {
                    TransportError::Bootstrap(format!("bad address '{}': {e}", text.trim()))
                })?;
                Ok(Some(addr))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("eth-layout-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn publish_and_lookup() {
        let layout = LayoutFile::create(&tmp("pub")).unwrap();
        let addr: SocketAddr = "127.0.0.1:4567".parse().unwrap();
        layout.publish(2, addr).unwrap();
        assert_eq!(layout.lookup(2).unwrap(), Some(addr));
        assert_eq!(layout.lookup(0).unwrap(), None);
    }

    #[test]
    fn corrupt_entry_reports_bootstrap_error() {
        let dir = tmp("corrupt");
        let layout = LayoutFile::create(&dir).unwrap();
        fs::write(dir.join("rank_0000.addr"), "not an address").unwrap();
        assert!(matches!(
            layout.lookup(0),
            Err(TransportError::Bootstrap(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever bytes an entry holds, invalid UTF-8 included, lookup
        /// returns the address they spell or a bootstrap error; it never
        /// panics.
        #[test]
        fn lookup_is_total(
            noise in prop::collection::vec(0u16..256, 0..64),
            port in 1u16..65535,
        ) {
            let dir = tmp("total");
            let layout = LayoutFile::create(&dir).unwrap();
            let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
            fs::write(dir.join("rank_0000.addr"), &noise).unwrap();
            match layout.lookup(0) {
                Ok(Some(addr)) => {
                    let text = std::str::from_utf8(&noise).unwrap();
                    prop_assert_eq!(Some(addr), text.trim().parse().ok());
                }
                Ok(None) => prop_assert!(false, "an entry that exists read as absent"),
                Err(e) => prop_assert!(matches!(e, TransportError::Bootstrap(_)), "{e}"),
            }
            // an address with a stray byte after it is refused too
            let mut entry = format!("127.0.0.1:{port}").into_bytes();
            entry.extend_from_slice(&noise);
            fs::write(dir.join("rank_0000.addr"), &entry).unwrap();
            match layout.lookup(0) {
                Ok(addr) => {
                    let text = std::str::from_utf8(&entry).unwrap();
                    prop_assert_eq!(addr, text.trim().parse().ok());
                }
                Err(e) => prop_assert!(matches!(e, TransportError::Bootstrap(_)), "{e}"),
            }
        }
    }
}
