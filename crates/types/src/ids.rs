//! Identities: heterogeneous cores, their DMA engines, and traffic classes.

use core::fmt;

/// The kind of heterogeneous core, following Table 2 of the paper.
///
/// Each kind implies a *type of target performance* (frame rate, latency,
/// buffer occupancy, bandwidth or processing time) and a traffic class used
/// by the memory controller's class queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoreKind {
    /// General-purpose CPU cluster (best-effort background traffic).
    Cpu,
    /// GPU rendering at a target frame rate.
    Gpu,
    /// Latency-bounded signal processor (Eqn 1).
    Dsp,
    /// Camera image processor (frame rate).
    ImageProcessor,
    /// Video encoder/decoder (frame rate).
    VideoCodec,
    /// Frame rotator (frame rate).
    Rotator,
    /// JPEG snapshot encoder (frame rate).
    Jpeg,
    /// Camera sensor front-end (write-buffer occupancy).
    Camera,
    /// Display controller refilling the LCD read buffer (Eqn 3).
    Display,
    /// GPS baseband (processing time per work unit).
    Gps,
    /// WiFi interface (bandwidth).
    WiFi,
    /// USB interface (bandwidth).
    Usb,
    /// Cellular modem (processing time per work unit).
    Modem,
    /// Audio pipeline (latency).
    Audio,
}

impl CoreKind {
    /// All core kinds in Table 2 order.
    pub const ALL: [CoreKind; 14] = [
        CoreKind::Gpu,
        CoreKind::Dsp,
        CoreKind::ImageProcessor,
        CoreKind::VideoCodec,
        CoreKind::Rotator,
        CoreKind::Jpeg,
        CoreKind::Camera,
        CoreKind::Display,
        CoreKind::Gps,
        CoreKind::WiFi,
        CoreKind::Usb,
        CoreKind::Modem,
        CoreKind::Audio,
        CoreKind::Cpu,
    ];

    /// The memory-controller traffic class this core belongs to.
    ///
    /// The paper's controller has five transaction queues "respectively
    /// designated to the CPU, the GPU, the DSP, media cores and system
    /// cores" (§4.1).
    pub fn class(self) -> CoreClass {
        match self {
            CoreKind::Cpu => CoreClass::Cpu,
            CoreKind::Gpu => CoreClass::Gpu,
            CoreKind::Dsp => CoreClass::Dsp,
            CoreKind::ImageProcessor
            | CoreKind::VideoCodec
            | CoreKind::Rotator
            | CoreKind::Jpeg
            | CoreKind::Camera
            | CoreKind::Display => CoreClass::Media,
            CoreKind::Gps | CoreKind::WiFi | CoreKind::Usb | CoreKind::Modem | CoreKind::Audio => {
                CoreClass::System
            }
        }
    }

    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            CoreKind::Cpu => "CPU",
            CoreKind::Gpu => "GPU",
            CoreKind::Dsp => "DSP",
            CoreKind::ImageProcessor => "Image Proc.",
            CoreKind::VideoCodec => "Video Codec",
            CoreKind::Rotator => "Rotator",
            CoreKind::Jpeg => "JPEG",
            CoreKind::Camera => "Camera",
            CoreKind::Display => "Display",
            CoreKind::Gps => "GPS",
            CoreKind::WiFi => "WiFi",
            CoreKind::Usb => "USB",
            CoreKind::Modem => "Modem",
            CoreKind::Audio => "Audio",
        }
    }

    /// Parses the [`CoreKind::name`] spelling back into a kind — the one
    /// reading of a core name, for scenario files and CLI flags alike.
    ///
    /// # Errors
    ///
    /// `unknown core kind "<name>" (expected one of: <every name>)`.
    pub fn parse(name: &str) -> Result<CoreKind, String> {
        CoreKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = CoreKind::ALL.iter().map(|k| k.name()).collect();
                format!(
                    "unknown core kind \"{name}\" (expected one of: {})",
                    known.join(", ")
                )
            })
    }
}

impl fmt::Display for CoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Memory-controller traffic class — one per transaction queue (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoreClass {
    /// General-purpose CPU traffic.
    Cpu,
    /// GPU traffic.
    Gpu,
    /// Latency-critical DSP traffic.
    Dsp,
    /// Media cores (camera pipeline, codecs, display).
    Media,
    /// System cores (connectivity, positioning, audio).
    System,
}

impl CoreClass {
    /// All five classes, in queue order.
    pub const ALL: [CoreClass; 5] = [
        CoreClass::Cpu,
        CoreClass::Gpu,
        CoreClass::Dsp,
        CoreClass::Media,
        CoreClass::System,
    ];

    /// Queue index of this class inside the memory controller.
    #[inline]
    pub fn queue_index(self) -> usize {
        match self {
            CoreClass::Cpu => 0,
            CoreClass::Gpu => 1,
            CoreClass::Dsp => 2,
            CoreClass::Media => 3,
            CoreClass::System => 4,
        }
    }

    /// Human-readable class name.
    pub fn name(self) -> &'static str {
        match self {
            CoreClass::Cpu => "CPU",
            CoreClass::Gpu => "GPU",
            CoreClass::Dsp => "DSP",
            CoreClass::Media => "media",
            CoreClass::System => "system",
        }
    }
}

impl fmt::Display for CoreClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Index of a DMA engine in the simulated system.
///
/// A core usually owns several independent DMA engines (§3.1: "there are
/// usually multiple DMAs in a single core"); each has its own performance
/// meter and priority adaptation.
///
/// # Examples
///
/// ```
/// use sara_types::DmaId;
///
/// let id = DmaId::new(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DmaId(u16);

impl DmaId {
    /// Creates a DMA identifier from its dense system-wide index.
    #[inline]
    pub const fn new(index: u16) -> Self {
        DmaId(index)
    }

    /// The dense index (usable for `Vec` indexing).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DmaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dma{}", self.0)
    }
}

/// Identifier of one DRAM channel — and, in the lane-structured engine, of
/// the lane that owns it (controller slice + DRAM channel + clock domain).
///
/// # Examples
///
/// ```
/// use sara_types::ChannelId;
///
/// let ch = ChannelId::new(1);
/// assert_eq!(ch.index(), 1);
/// assert_eq!(ch.to_string(), "ch1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ChannelId(u8);

impl ChannelId {
    /// Creates a channel identifier from its dense index.
    #[inline]
    pub const fn new(index: u8) -> Self {
        ChannelId(index)
    }

    /// The dense index (usable for `Vec` indexing).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping_matches_paper() {
        assert_eq!(CoreKind::Display.class(), CoreClass::Media);
        assert_eq!(CoreKind::Camera.class(), CoreClass::Media);
        assert_eq!(CoreKind::Gps.class(), CoreClass::System);
        assert_eq!(CoreKind::Usb.class(), CoreClass::System);
        assert_eq!(CoreKind::Dsp.class(), CoreClass::Dsp);
        assert_eq!(CoreKind::Gpu.class(), CoreClass::Gpu);
        assert_eq!(CoreKind::Cpu.class(), CoreClass::Cpu);
    }

    #[test]
    fn queue_indices_are_dense_and_unique() {
        let mut seen = [false; 5];
        for class in CoreClass::ALL {
            let idx = class.queue_index();
            assert!(!seen[idx]);
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn all_core_kinds_listed_once() {
        for (i, a) in CoreKind::ALL.iter().enumerate() {
            for b in &CoreKind::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(CoreKind::ALL.len(), 14);
    }

    #[test]
    fn names_are_nonempty() {
        for kind in CoreKind::ALL {
            assert!(!kind.name().is_empty());
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn core_kind_names_round_trip() {
        for kind in CoreKind::ALL {
            assert_eq!(CoreKind::parse(kind.name()), Ok(kind));
        }
        let err = CoreKind::parse("gpu").unwrap_err();
        assert!(
            err.starts_with("unknown core kind \"gpu\" (expected one of: GPU, "),
            "{err}"
        );
        assert!(CoreKind::parse("").is_err());
    }
}
