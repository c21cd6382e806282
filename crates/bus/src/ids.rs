//! Identifier types shared across the system.

use std::fmt;

/// A processing unit (the paper's *cluster*).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClusterId(pub u16);

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A globally unique process identifier.
///
/// Standard UNIX pids index a local process table and are therefore
/// *environmental* — a backup in another cluster would see a different
/// value. §7.5.1: "We have made the process id into a globally unique
/// identifier which is sent to the parent's backup on fork, and to the
/// backup itself on first sync."
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A channel file descriptor, local to one process (§7.4.1 keeps the UNIX
/// term even though channels need not represent files).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fd(pub u32);

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// A signal number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Sig(pub u8);

impl Sig {
    /// Interrupt from a terminal (control-C), §7.5.2.
    pub const INT: Sig = Sig(2);
    /// Alarm-clock signal requested via the `alarm` call.
    pub const ALRM: Sig = Sig(14);
    /// Unconditional termination.
    pub const KILL: Sig = Sig(9);
    /// User-defined signal.
    pub const USR1: Sig = Sig(10);
}

impl fmt::Display for Sig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Sig::INT => write!(f, "SIGINT"),
            Sig::ALRM => write!(f, "SIGALRM"),
            Sig::KILL => write!(f, "SIGKILL"),
            Sig::USR1 => write!(f, "SIGUSR1"),
            Sig(n) => write!(f, "SIG{n}"),
        }
    }
}

/// A rendezvous name for opening channels (§7.4.1).
///
/// Names beginning with `/` refer to file-system objects; other names are
/// pure channel rendezvous points the file server pairs up.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChannelName(pub String);

impl ChannelName {
    /// Builds a name from anything string-like.
    pub fn new(s: impl Into<String>) -> ChannelName {
        ChannelName(s.into())
    }

    /// Returns `true` if the name refers to a file-system path.
    pub fn is_file(&self) -> bool {
        self.0.starts_with('/')
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ChannelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ChannelName {
    fn from(s: &str) -> ChannelName {
        ChannelName::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ClusterId(3).to_string(), "c3");
        assert_eq!(Pid(12).to_string(), "p12");
        assert_eq!(Fd(1).to_string(), "fd1");
        assert_eq!(Sig::INT.to_string(), "SIGINT");
        assert_eq!(Sig(33).to_string(), "SIG33");
    }

    #[test]
    fn file_names_start_with_slash() {
        assert!(ChannelName::new("/etc/passwd").is_file());
        assert!(!ChannelName::new("pipe.a").is_file());
    }
}
